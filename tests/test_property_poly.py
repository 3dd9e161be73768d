"""Property-based cross-family differential: poly == delta, always.

For any generated program, execution sample, register width and memory
model — including checking weak-hardware executions against stronger
models, the violation-bearing half of the space — the frontier-closure
pipeline must agree with the delta pipeline on the violation digest:
same graph count, same violating indices, signature by signature.  Both
executors are covered: the operational reference and the detailed MESI
simulator (whose clean runs are TSO executions).

The suite also proves the harness *detects* divergence: with one rule
family surgically removed from the verifier, hypothesis must find a
disagreeing input and shrink it to a minimal single-signature block.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checker import PolyChecker, PolySignatureSource, PolyVerifier
from repro.checker.poly import violation_digest
from repro.instrument import SignatureCodec
from repro.mcm import SC, TSO, WEAK
from repro.sim import OperationalExecutor
from repro.sim.detailed import DetailedExecutor
from repro.testgen import TestConfig, generate
from tests.differential import reference_reports

_MODELS = {"sc": SC, "tso": TSO, "weak": WEAK}


@st.composite
def poly_case(draw):
    cfg = TestConfig(
        threads=draw(st.integers(1, 4)),
        ops_per_thread=draw(st.integers(2, 25)),
        addresses=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 100_000)),
    )
    #: run on weak hardware, check against a drawn (possibly stronger)
    #: model — the violation-bearing half of the space
    check_model = _MODELS[draw(st.sampled_from(sorted(_MODELS)))]
    width = draw(st.sampled_from([32, 64]))
    seed = draw(st.integers(0, 1000))
    return cfg, check_model, width, seed


def campaign_signatures(cfg, width, seed):
    program = generate(cfg)
    codec = SignatureCodec(program, width)
    executor = OperationalExecutor(program, WEAK, seed=seed,
                                   layout=cfg.layout)
    return program, codec, \
        sorted({codec.encode(e.rf) for e in executor.run(12)})


def poly_digest(program, codec, signatures, model):
    source = PolySignatureSource(codec, model, signatures)
    return violation_digest(PolyChecker().check(source))


@given(poly_case())
@settings(max_examples=25, deadline=None)
def test_poly_digest_equals_delta(case):
    cfg, check_model, width, seed = case
    program, codec, signatures = campaign_signatures(cfg, width, seed)
    legacy, delta = reference_reports(program, codec, signatures,
                                      check_model)
    digest = poly_digest(program, codec, signatures, check_model)
    assert digest == violation_digest(delta) == violation_digest(legacy)


@given(st.integers(0, 10_000))
@settings(max_examples=6, deadline=None)
def test_detailed_executor_runs_are_tso_clean(seed):
    """The MESI simulator without fault injection produces TSO-legal
    executions: poly and delta must both return an empty digest."""
    cfg = TestConfig(isa="x86", threads=3, ops_per_thread=10, addresses=4,
                     seed=seed % 50)
    program = generate(cfg)
    codec = SignatureCodec(program, 64)
    executor = DetailedExecutor(program, seed=seed, layout=cfg.layout)
    signatures = sorted({codec.encode(e.rf) for e in executor.run(20)
                         if not e.crashed})
    _, delta = reference_reports(program, codec, signatures, TSO)
    digest = poly_digest(program, codec, signatures, TSO)
    assert digest == violation_digest(delta)
    assert digest["violations"] == []


class TestInjectedDivergence:
    """The differential plane must bite, and hypothesis must shrink."""

    def _crippled_digest(self, program, codec, signatures, model):
        source = PolySignatureSource(codec, model, signatures)
        source.verifier.rules.next_store = {}  # drop the from-read rule
        return violation_digest(PolyChecker().check(source))

    def test_divergence_found_and_shrunk(self):
        cfg = TestConfig(isa="arm", threads=4, ops_per_thread=40,
                         addresses=8, seed=3)
        program = generate(cfg)
        codec = SignatureCodec(program, 32)
        executor = OperationalExecutor(program, WEAK, seed=13,
                                       layout=cfg.layout)
        pool = sorted({codec.encode(e.rf) for e in executor.run(300)})
        _, delta = reference_reports(program, codec, pool, SC)
        assert delta.violations  # the pool carries real violations
        pool_digest = violation_digest(delta)

        disagreeing = []

        # Derandomized and database-free: the examples tried, and so the
        # smallest disagreeing block found, depend on nothing but this
        # test — not on a .hypothesis/ directory left by earlier runs.
        @given(st.sets(st.sampled_from(pool), min_size=1))
        @settings(max_examples=60, deadline=None, database=None,
                  derandomize=True)
        def hunt(subset):
            block = sorted(subset)
            _, ref = reference_reports(program, codec, block, SC)
            crippled = self._crippled_digest(program, codec, block, SC)
            if crippled != violation_digest(ref):
                disagreeing.append(block)
                raise AssertionError("families disagree")

        with pytest.raises(AssertionError):
            hunt()
        # hypothesis shrank the counterexample to one signature — the
        # minimal reproducer a checker-bug report would pin.  Assert on
        # the smallest block tried, not on whichever example replayed
        # last: the replay order is Hypothesis's business.
        block = min(disagreeing, key=len)
        assert len(block) == 1
        _, ref = reference_reports(program, codec, block, SC)
        assert self._crippled_digest(program, codec, block, SC) != \
            violation_digest(ref)
        # the fault stayed local to the crippled verifiers: the graph
        # family's digest over the whole pool is unchanged
        _, delta_after = reference_reports(program, codec, pool, SC)
        assert violation_digest(delta_after) == pool_digest
