"""Which public calls of the program the traced run times, by layer.

:func:`install` wraps module attributes and class methods of ``repro``
with :class:`tracing.Tracer` spans.  Layer names follow the program's
module names.  :data:`LAYERS` records, for each per-layer metric, the
end-to-end metric and workload it should move; the traced run prints it
next to the numbers.
"""

from __future__ import annotations

import os

#: per-layer metric -> (unit, end-to-end metric it should move, workload)
LAYERS = {
    "cli.startup_s": ("s", "op_p50_s, work_per_s", "check; little on campaign"),
    "cli.exit_s": ("s", "op_p50_s", "check, campaign"),
    "testgen.generate_s": ("s", "none (under 1%)", "campaign"),
    "instrument.codec_s": ("s", "none (under 1%)", "campaign, check"),
    "instrument.encode_s": ("s", "none (under 1%)", "campaign"),
    "harness.campaign_s": ("s", "work_per_s", "campaign"),
    "harness.collect_s": ("s", "work_per_s", "campaign"),
    "sim.execute_s": ("s", "work_per_s", "campaign; setup_s only on check and serve"),
    "sim.us_per_access.weak": ("us", "work_per_s", "campaign"),
    "sim.us_per_access.tso": ("us", "work_per_s", "campaign"),
    "sim.us_per_access.detailed": ("us", "work_per_s", "campaign"),
    "sim.iterations": ("count", "none (exact count)", "campaign"),
    "sim.test_accesses": ("count", "none (exact count)", "campaign"),
    "io.save_s": ("s", "work_per_s", "campaign (a little)"),
    "io.load_s": ("s", "op_p50_s, work_per_s", "check; a little on campaign"),
    "io.dump_bytes": ("bytes", "op_p50_s", "check"),
    "graph.builder_s": ("s", "op_p50_s, work_per_s", "check"),
    "checker.pipeline_s": ("s", "op_p50_s", "check"),
    "checker.sort_s": ("s", "op_p50_s", "check"),
    "checker.compile_s": ("s", "op_p50_s, work_per_s", "check"),
    "checker.check_s": ("s", "op_p50_s, work_per_s", "check"),
    "checker.sorted_vertices": ("count", "op_p50_s", "check"),
    "checker.digits_changed": ("count", "op_p50_s", "check"),
    "checker.render_s": ("s", "op_tail_s", "check"),
    "checker.rebuild_s": ("s", "op_tail_s", "check"),
    "checker.violations": ("count", "op_tail_s", "check"),
    "serve.decode_s": ("s", "none (serve diagnostic)", "traced check runs"),
    "serve.encode_s": ("s", "none (serve diagnostic)", "traced check runs"),
    "serve.hello_s": ("s", "none (serve diagnostic; includes codec and graph builder set-up)", "traced check runs"),
    "serve.batch_s": ("s", "none (serve diagnostic)", "traced check runs"),
    "serve.ingest_novel_s": ("s", "none (serve diagnostic)", "traced check runs"),
    "serve.dedup_hit_s": ("s", "none (serve diagnostic)", "traced check runs"),
    "serve.feed_s": ("s", "none (serve diagnostic)", "traced check runs"),
    "serve.finalize_s": ("s", "none (serve diagnostic; includes its checking)", "traced check runs"),
    "serve.transport_queue_s": ("s", "none (serve diagnostic)", "traced check runs"),
    "serve.generator_lag_s": ("s", "none (serve diagnostic)", "traced check runs"),
    "serve.novel_share": ("ratio", "none (serve diagnostic)", "traced check runs"),
    "serve.busy_replies": ("count", "none (serve diagnostic)", "traced check runs"),
    "serve.ack_p50_low_s": ("s", "none (serve diagnostic)", "traced check runs"),
    "serve.ack_tail_low_s": ("s", "none (serve diagnostic)", "traced check runs"),
    "diag.metrics_out_extra_s": ("s", "none (diagnostic for --metrics-out cost)", "campaign"),
    **{"diag.pipeline.%s.%s_s" % (pipeline, stage): (
        "s", "none (diagnostic for the pipeline choice)", "check")
       for pipeline in ("delta", "packed", "poly", "graphs")
       for stage in ("load", "compile", "replay")},
    "trace.unattributed_s": ("s", "describes the traced run", "all"),
    "trace.coverage": ("ratio", "describes the traced run", "all"),
    "trace.overhead_frac": ("ratio", "describes the traced run", "all"),
}

#: names of the per-entry spans inside one serve batch
ENTRY_SPANS = ("serve.entry", "serve.ingest_novel", "serve.dedup_hit")


def _report_counts(tracer):
    def on_report(report, args):
        tracer.count("checker.sorted_vertices", report.sorted_vertices)
        tracer.count("checker.digits_changed", report.digits_changed)
        tracer.count("checker.violations", len(report.violations))
    return on_report


def _executor_kind(executor) -> str:
    from repro.sim.detailed import DetailedExecutor

    if isinstance(executor, DetailedExecutor):
        return "detailed"
    return executor.model.name


def install(tracer) -> None:
    """Wrap the program's public calls with spans on ``tracer``."""
    from repro import cli, io
    from repro.checker.collective import CollectiveChecker
    from repro.checker.delta import SignatureDeltaSource
    from repro.checker.packed import PackedChecker, PackedPlan
    from repro.checker.poly import PolyChecker, PolySignatureSource
    from repro.checker.stream import StreamingCollectiveChecker
    from repro.graph.builder import GraphBuilder
    from repro.harness import runner
    from repro.instrument.signature import SignatureCodec
    from repro.serve import daemon, protocol, session
    from repro.serve.dedup import SignatureDedupStore
    from repro.sim.detailed import DetailedExecutor
    from repro.sim.executor import OperationalExecutor

    wrap = tracer.wrap
    wrap(runner, "generate", "testgen.generate")
    wrap(SignatureCodec, "__init__", "instrument.codec")
    wrap(SignatureCodec, "encode", "instrument.encode")
    wrap(runner.Campaign, "__init__", "harness.campaign")

    def collected(result, args):
        kind = _executor_kind(args[0].executor)
        tracer.count("sim.iterations", result.iterations)
        tracer.count("sim.test_accesses", result.test_accesses)
        tracer.count("sim.test_accesses." + kind, result.test_accesses)

    wrap(runner.Campaign, "run_blocks", "harness.collect", on_result=collected)
    tracer.wrap_generator(OperationalExecutor, "run", "sim.execute",
                          attrs=lambda a, k: {"kind": a[0].model.name})
    tracer.wrap_generator(DetailedExecutor, "run", "sim.execute",
                          attrs=lambda a, k: {"kind": "detailed"})

    def saved(result, args):
        tracer.count("io.dump_bytes", os.path.getsize(args[1]))

    def loaded(result, args):
        tracer.count("io.dump_bytes", os.path.getsize(args[0]))

    wrap(io, "save_campaign", "io.save", on_result=saved)
    wrap(io, "read_campaign", "io.load", on_result=loaded)

    wrap(cli, "check_campaign_result", "checker.pipeline")
    wrap(runner, "check_campaign_result", "checker.pipeline")
    wrap(runner.CampaignResult, "sorted_signatures", "checker.sort")
    wrap(runner.CheckOutcome, "graph_at", "checker.rebuild")
    wrap(cli, "describe_cycle", "checker.render")
    wrap(GraphBuilder, "__init__", "graph.builder")
    wrap(GraphBuilder, "build", "graph.builder")
    for owner, attr in ((SignatureDeltaSource, "__init__"),
                        (SignatureDeltaSource, "base_state"),
                        (SignatureDeltaSource, "delta_pairs"),
                        (PackedPlan, "__init__"),
                        (PolySignatureSource, "__init__")):
        wrap(owner, attr, "checker.compile")
    on_report = _report_counts(tracer)
    for owner, attr in ((CollectiveChecker, "check"),
                        (CollectiveChecker, "check_deltas"),
                        (PackedChecker, "check"),
                        (PolyChecker, "check")):
        wrap(owner, attr, "checker.check", on_result=on_report)

    wrap(protocol, "decode_payload", "serve.decode")
    wrap(protocol, "encode_frame", "serve.encode")
    wrap(daemon, "load_program", "serve.hello")
    wrap(session.CampaignSession, "__init__", "serve.hello")
    wrap(session.CampaignSession, "ingest", "serve.batch")
    wrap(session.CampaignSession, "finalize", "serve.finalize")
    wrap(StreamingCollectiveChecker, "finalize", "serve.finalize")
    wrap(StreamingCollectiveChecker, "feed", "serve.feed")
    _install_entry_probes(tracer, session, SignatureDedupStore)


def _install_entry_probes(tracer, session, store_cls) -> None:
    """Split a serve batch into one span per entry.

    ``signature_from_entry`` starts each entry of ``CampaignSession.
    ingest``, so it closes the previous entry's span and opens the next;
    the dedup lookup then names the span a hit or a novel ingest.  The
    last entry's span is closed when ``ingest`` returns.
    """
    decode_entry = session.signature_from_entry
    observe = store_cls.observe

    def entry_probe(entry):
        current = tracer.current()
        if current is not None and tracer.spans[current][0] in ENTRY_SPANS:
            tracer.end(current)
        tracer.begin("serve.entry")
        return decode_entry(entry)

    def observe_probe(self, campaign, signature):
        record = observe(self, campaign, signature)
        current = tracer.current()
        if current is not None and tracer.spans[current][0] in ENTRY_SPANS:
            tracer.spans[current][0] = ("serve.ingest_novel" if record is None
                                        else "serve.dedup_hit")
        return record

    session.signature_from_entry = entry_probe
    store_cls.observe = observe_probe
