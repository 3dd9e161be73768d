"""Host-side checking of campaign results (the paper's last Figure 1 step).

A :class:`CampaignResult` is a campaign's signature multiset, whether it
was collected in process, merged from fleet shards or loaded from a dump;
:func:`check_campaign_result` sorts its unique signatures, decodes them
(Algorithm 1), and checks them with the collective checker.  This module
imports no executor, test generator or linter, and each checking
pipeline's module loads only when that pipeline runs, so a ``repro
check`` process pays for the one it uses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.checker.dispatch import DEFAULT_PIPELINE, PIPELINES, choose_pipeline
from repro.checker.results import CheckReport
from repro.graph.builder import GraphBuilder
from repro.instrument.signature import Signature, SignatureCodec
from repro.isa.program import TestProgram
from repro.mcm.model import MemoryModel, model_for_register_width
from repro.obs import get_obs
from repro.sim.execution import Execution


@dataclass
class CampaignResult:
    """Everything a campaign observed before checking."""

    program: TestProgram
    codec: SignatureCodec
    iterations: int = 0
    #: signature -> occurrence count over all iterations
    signature_counts: Counter = field(default_factory=Counter)
    #: summed cycle accounting over all iterations
    base_cycles: float = 0.0
    instrumentation_cycles: float = 0.0
    signature_sort_cycles: float = 0.0
    test_accesses: int = 0
    extra_accesses: int = 0
    crashes: int = 0
    #: iterations the lint gate statically proved redundant and skipped
    skipped_iterations: int = 0
    #: iterations whose observed rf fell outside the instrumented
    #: candidate sets — the signature chain's assertion tail fired
    #: (paper Figure 4 "assert error"); a detection outcome on its own,
    #: these executions have no encodable signature
    signature_asserts: int = 0

    def __post_init__(self):
        self._representatives: dict = {}
        #: ``(signature, ws)`` pairs whose rf is not decoded yet
        self._undecoded: list = []

    @property
    def representatives(self) -> dict:
        """signature -> representative execution (first with that signature).

        Representatives recorded with :meth:`defer_representatives`
        decode their ``rf`` from the signature on the first read of this
        property; a static check needs only the signatures and never
        reads it.
        """
        if self._undecoded:
            decode = self.codec.decode
            self._representatives.update(
                (signature, Execution(decode(signature), ws))
                for signature, ws in self._undecoded)
            self._undecoded = []
        return self._representatives

    def defer_representatives(self, pairs: list) -> None:
        """Record ``(signature, ws)`` representatives, decoded on first read."""
        self._undecoded.extend(pairs)

    @property
    def unique_signatures(self) -> int:
        """The paper's "number of unique memory-access interleavings"."""
        return len(self.signature_counts)

    def sorted_signatures(self) -> list[Signature]:
        return sorted(self.signature_counts)


@dataclass
class CheckOutcome:
    """Violation-checking results over a campaign's unique executions."""

    collective: CheckReport
    #: conventional per-execution checking; None when it was skipped
    baseline: CheckReport = None
    #: signatures, in the checked (ascending) order
    signatures: list = field(default_factory=list)
    #: constraint graphs, aligned with ``signatures``; empty under the
    #: signature-sourced pipelines, which never materialize the full
    #: list — use :meth:`graph_at` for uniform access
    graphs: list = field(default_factory=list)
    #: which checking pipeline produced this outcome
    pipeline: str = "graphs"
    #: signature source kept for on-demand graph rebuilds
    source: object = None

    @property
    def violating_signatures(self) -> list:
        return [self.signatures[v.index] for v in self.collective.violations]

    def graph_at(self, index: int):
        """Constraint graph of checked execution ``index``.

        Returns the materialized graph when the ``graphs`` pipeline
        built one, else rebuilds it from the signature source (identical
        by construction) — callers rendering violation witnesses don't
        care which pipeline ran.
        """
        if self.graphs:
            return self.graphs[index]
        if self.source is not None:
            return self.source.full_graph(index)
        raise IndexError("no graphs materialized and no signature source kept")


def check_campaign_result(result: CampaignResult, model: MemoryModel = None,
                          ws_mode: str = "static", baseline: bool = True,
                          pipeline: str = DEFAULT_PIPELINE) -> CheckOutcome:
    """Host-side checking of any campaign result — live, loaded or merged.

    The campaign's origin is irrelevant: a serial run, a fleet-merged
    multiset and a :func:`repro.io.load_campaign` dump all check through
    this one path, so sharding can never change checker semantics.

    Args:
        result: signature multiset (plus representatives) to check.
        model: memory model; defaults to the platform matching the
            result's signature register width (the io.py convention).
        ws_mode: ``"static"`` (paper default) or ``"observed"``.
        baseline: also run the conventional per-execution checker;
            skipped (``outcome.baseline is None``) when False.
        pipeline: ``"packed"`` (default) compiles the block into flat
            arrays (CSR edge universe, batched signature decode, per-step
            delta tapes) once and replays them through the array-kernel
            checker; ``"delta"`` decodes signatures incrementally
            (changed digits only) and streams edge deltas through the
            collective checker, never holding more than one full graph;
            ``"graphs"`` is the legacy path that builds the whole graph
            list first; ``"poly"`` decodes each signature and runs an
            independent frontier-closure verification (no constraint
            graph, no topological sort — the second algorithm family);
            ``"auto"`` is an alias that resolves to ``"packed"`` via
            :func:`repro.checker.choose_pipeline`.
            Violation verdicts are identical in all of them; the
            graph-family pipelines additionally share the full report
            summary byte for byte.  ``ws_mode="observed"`` graphs depend
            on per-execution coherence order, not the signature alone,
            so they always fall back to ``"graphs"``.
    """
    if pipeline not in PIPELINES:
        raise ValueError(
            "pipeline must be one of %s; got %r"
            % ("/".join(PIPELINES), pipeline))
    if model is None:
        model = model_for_register_width(result.codec.register_width)
    if ws_mode == "observed":
        pipeline = "graphs"  # observed graphs are not signature-pure
    obs = get_obs()
    with obs.span("check"):
        signatures = result.sorted_signatures()
        if pipeline == "auto":
            pipeline = choose_pipeline(ws_mode)
        if pipeline == "poly":
            from repro.checker.poly import PolyChecker, PolySignatureSource

            source = PolySignatureSource(result.codec, model, signatures)
            return CheckOutcome(
                collective=PolyChecker().check(source),
                baseline=_baseline(baseline, stream=source),
                signatures=signatures,
                pipeline="poly",
                source=source,
            )
        builder = GraphBuilder(result.program, model, ws_mode=ws_mode)
        if pipeline == "packed":
            from repro.checker.packed import PackedChecker, PackedPlan

            plan = PackedPlan(result.codec, builder, signatures)
            return CheckOutcome(
                collective=PackedChecker().check(plan),
                baseline=_baseline(baseline, stream=plan),
                signatures=signatures,
                pipeline="packed",
                source=plan,
            )
        from repro.checker.collective import CollectiveChecker

        if pipeline == "delta":
            from repro.checker.delta import SignatureDeltaSource

            source = SignatureDeltaSource(result.codec, builder, signatures)
            return CheckOutcome(
                collective=CollectiveChecker().check_deltas(source),
                baseline=_baseline(baseline, stream=source),
                signatures=signatures,
                pipeline="delta",
                source=source,
            )
        graphs = []
        with obs.span("check.build_graphs"):
            for signature in signatures:
                rf = result.codec.decode(signature)
                if ws_mode == "observed":
                    graphs.append(
                        builder.build(rf, result.representatives[signature].ws))
                else:
                    graphs.append(builder.build(rf))
        return CheckOutcome(
            collective=CollectiveChecker().check(graphs),
            baseline=_baseline(baseline, graphs=graphs),
            signatures=signatures,
            graphs=graphs,
        )


def _baseline(wanted: bool, stream=None, graphs=None):
    """The conventional per-execution check, when ``wanted``."""
    if not wanted:
        return None
    from repro.checker.baseline import BaselineChecker

    if graphs is not None:
        return BaselineChecker().check(graphs)
    return BaselineChecker().check_stream(stream)
