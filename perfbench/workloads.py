"""The workloads ``campaign`` and ``check``, and the serve diagnostic.

Every workload makes its inputs from the seed alone, runs the program
only through its user entry points (``python -m repro run|check``
children, one at a time), checks every output, and returns a
:class:`Run` holding the end-to-end metrics (and, traced, the per-layer
ones).

Why these workloads:

* ``campaign`` — the device->host flow ``repro run -o dump`` then
  ``repro check dump`` on the weak (ARM), TSO (x86) and detailed MESI
  executors.  The executor does most of the work; checking does little.
* ``check`` — ``repro check`` on large, highly non-deterministic dumps
  made in set-up, a third of them from a ``tso-sb-reorder`` mutated
  campaign with violations.  Start-up, dump loading and graph/checker
  work share the time; the executor does nothing in the timed phase.
  The violating dumps fill the tail.

The ``repro serve`` path is measured only by the traced run of
``check`` (:func:`serve_diagnostic`): its open-loop latencies and
closed-loop rate spread by more than a quarter between runs on a shared
two-core host, too much for an end-to-end workload with a regression
bound.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from collections import Counter
from dataclasses import dataclass, field

import serve_load
from children import Runner, stop
from measure import median, tail
from tracing import clock, graft, layer_totals, self_times

#: number of times set-up runs in one benchmark run (the median is kept)
SETUP_REPEATS = 3

#: (label, isa, threads, ops, addresses, detailed) of campaign configs
CAMPAIGN_CONFIGS = (
    ("ARM-4-100-64", "arm", 4, 100, 64, False),
    ("x86-4-100-64", "x86", 4, 100, 64, False),
    ("x86-2-50-32-detailed", "x86", 2, 50, 32, True),
)
CAMPAIGN_ITERATIONS = 200
#: distinct programs per campaign config, cycled through the run
CAMPAIGN_PROGRAMS = 3
CAMPAIGN_TAIL = 0.75

#: (label, isa, threads, ops, addresses, mutation) of check dumps
CHECK_DUMPS = tuple(
    dump for copy in ("a", "b") for dump in (
        ("ARM-4-200-64" + copy, "arm", 4, 200, 64, None),
        ("x86-4-200-64" + copy, "x86", 4, 200, 64, None),
        # 16 addresses, so the reordered store buffer shows on every seed
        ("x86-4-200-16-tso-sb-reorder" + copy, "x86", 4, 200, 16,
         "tso-sb-reorder")))
CHECK_ITERATIONS = 300
CHECK_TAIL = 0.8
#: pipelines compared by the traced check diagnostic
PIPELINES = ("delta", "packed", "poly", "graphs")

#: serve diagnostic (traced check runs only): (label, isa, threads, ops,
#: addresses) of the session programs, all one config so sessions cost
#: about the same
SERVE_PROGRAMS = (("x86-4-100-64", "x86", 4, 100, 64),)
SERVE_PROGRAMS_PER_CONFIG = 12
#: the warm-up program, never used by measured traffic
SERVE_WARMUP = ("ARM-4-50-64-warm-up", "arm", 4, 50, 64)
#: iterations of the one device campaign behind each session
SERVE_DEVICE_ITERATIONS = 200
#: entries per session (one per device iteration), at most this many
#: distinct, and entries per batch
SERVE_SESSION_ENTRIES = 1024
SERVE_SESSION_UNIQUE = 48
SERVE_BATCH = 64
#: offered rates in batches/s, open loop, and seconds at each
SERVE_RATES = (60.0, 150.0)
SERVE_PHASE_S = 4.0
SERVE_TAIL = 0.99

RUN_LINE = re.compile(r"^(\S+): (\d+) iterations, (\d+) unique signatures, "
                      r"(\d+) crashes")
CHECK_LINE = re.compile(r"^checked (\d+) unique executions under (\w+) "
                        r"\((\w+) ws\): (\d+) violations")


def derive(seed: int, *parts) -> int:
    """A 31-bit seed that is a pure function of the workload seed."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                          "big") & 0x7FFFFFFF


@dataclass
class Run:
    """Failure accounting and metrics of one workload run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    #: extra lines for the human-readable report
    notes: list = field(default_factory=list)

    def outcome(self, ok: bool, what: str) -> bool:
        """Count one operation; a wrong output counts as a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (value, unit)


@dataclass
class Context:
    root: str
    work: str
    seed: int
    seconds: float
    traced: bool
    pins: dict

    @property
    def runner(self) -> Runner:
        return Runner(self.root, self.work)

    def pinned(self, workload: str, key: str):
        return self.pins.get(str(self.seed), {}).get(workload, {}).get(key)


def parse_run(stdout: str):
    for line in stdout.splitlines():
        match = RUN_LINE.match(line)
        if match:
            return {"iterations": int(match.group(2)),
                    "unique": int(match.group(3)),
                    "crashes": int(match.group(4))}
    return None


def parse_check(stdout: str):
    for line in stdout.splitlines():
        match = CHECK_LINE.match(line)
        if match:
            return {"unique": int(match.group(1)),
                    "violations": int(match.group(4))}
    return None


def check_against(expected: dict, got: dict) -> list:
    """Field-by-field differences between expected and printed values."""
    if got is None:
        return ["no result line"]
    return ["%s: expected %r, got %r" % (k, v, got.get(k))
            for k, v in expected.items() if got.get(k) != v]


def setup_repeated(make):
    """Run ``make()`` :data:`SETUP_REPEATS` times; keep the last result.

    Returns ``(result, median set-up seconds)``.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        result = make()
        times.append(clock() - start)
    return result, median(times)


# -- tracing support ---------------------------------------------------------------


class TraceBook:
    """Grafts traced children into one span list and keeps the counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.wall = 0.0
        self.ops = 0

    def add_child(self, result, op_index: int) -> dict:
        """Attach one traced child under the op span ``op_index``;
        returns the child's counts."""
        trace = result.trace or {}
        spans = self.spans
        if trace:
            spans.append(["cli.startup", result.start, trace["imported"],
                          op_index, None])
            spans.append(["trace.install", trace["imported"], trace["ready"],
                          op_index, None])
            graft(spans, trace["spans"], op_index)
            spans.append(["cli.exit", trace["returned"], result.end,
                          op_index, None])
        counts = trace.get("counts", {})
        self.counts.update(counts)
        return counts

    def op(self, start: float, end: float) -> int:
        self.spans.append(["op", start, end, None, None])
        self.wall += end - start
        self.ops += 1
        return len(self.spans) - 1

    def layer_metrics(self, run: Run) -> None:
        """Self time per layer, per traced operation, into ``run.layers``;
        the probe installation is bench overhead and left out of wall."""
        totals = layer_totals(self.spans, exclude=("op", "trace.install"))
        install = sum(s[2] - s[1] for s in self.spans if s[0] == "trace.install")
        wall = self.wall - install
        attributed = sum(totals.values())
        per = max(1, self.ops)
        for name, seconds in totals.items():
            if not name.startswith("sim.execute"):
                run.layers[name + "_s"] = seconds / per
        by_kind = Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            if span[0] == "sim.execute":
                by_kind[(span[4] or {}).get("kind", "?")] += own
        run.layers["sim.execute_s"] = sum(by_kind.values()) / per
        for kind in ("weak", "tso", "detailed"):
            accesses = self.counts.get("sim.test_accesses." + kind, 0)
            run.layers["sim.us_per_access." + kind] = (
                1e6 * by_kind[kind] / accesses if accesses else 0.0)
        for name in ("sim.iterations", "sim.test_accesses", "io.dump_bytes",
                     "checker.sorted_vertices", "checker.digits_changed",
                     "checker.violations"):
            run.layers[name] = self.counts.get(name, 0) / per
        run.layers["trace.unattributed_s"] = max(0.0, wall - attributed) / per
        run.layers["trace.coverage"] = attributed / wall if wall else 0.0


# -- campaign ----------------------------------------------------------------------


@dataclass
class Program:
    label: str
    isa: str
    threads: int
    ops: int
    addresses: int
    seed: int
    run_seed: int
    detailed: bool = False
    mutation: str = None

    @property
    def key(self) -> str:
        return "%s/%d/%d" % (self.label, self.seed, self.run_seed)

    def config_args(self) -> list:
        return ["--isa", self.isa, "--threads", str(self.threads),
                "--ops", str(self.ops), "--addresses", str(self.addresses),
                "--seed", str(self.seed)]

    def test_config(self):
        from repro.testgen import TestConfig

        return TestConfig(isa=self.isa, threads=self.threads,
                          ops_per_thread=self.ops, addresses=self.addresses,
                          seed=self.seed)


def campaign_programs(seed: int) -> list:
    """The campaign ops of one cycle block: every config x program."""
    programs = []
    for index in range(CAMPAIGN_PROGRAMS):
        for label, isa, threads, ops, addresses, detailed in CAMPAIGN_CONFIGS:
            programs.append(Program(
                label, isa, threads, ops, addresses,
                derive(seed, "campaign", label, index),
                derive(seed, "campaign-run", label, index) % 100000,
                detailed=detailed))
    return programs


def run_args(program: Program, iterations: int, dump: str) -> list:
    args = ["run"] + program.config_args() + [
        "--iterations", str(iterations), "--run-seed", str(program.run_seed),
        "-o", dump]
    if program.detailed:
        args.append("--detailed")
    return args


def campaign_workload(ctx: Context) -> Run:
    run = Run()
    runner = ctx.runner
    programs = campaign_programs(ctx.seed)
    warm_dump = os.path.join(ctx.work, "warm.json")

    def warm_up():
        # the first child in a checkout also compiles bytecode; set-up
        # covers it so the timed ops all start alike
        child = runner.run(["run", "--iterations", "5", "-o", warm_dump])
        run.outcome(child.code == 0, "warm-up run exited %d" % child.code)

    _, setup_s = setup_repeated(warm_up)
    book = TraceBook()
    pairs, checks, rss = [], [], []
    iterations = 0
    plain = traced_wall = 0.0
    dump = os.path.join(ctx.work, "campaign.json")
    start = clock()
    index = 0
    while clock() - start < ctx.seconds or not pairs:
        program = programs[index % len(programs)]
        index += 1
        # traced, every op also runs untraced first on the same input
        for traced in ((False, True) if ctx.traced else (False,)):
            first = runner.run(run_args(program, CAMPAIGN_ITERATIONS, dump),
                               traced=traced)
            second = runner.run(["check", dump], traced=traced)
            ok = _verify_campaign_op(ctx, run, program, first, second, traced)
            wall = first.wall + second.wall
            if traced:
                traced_wall += wall
                op = book.op(first.start, second.end)
                counts = book.add_child(first, op)
                book.add_child(second, op)
                _verify_sim_counts(ctx, run, program, counts)
                continue
            plain += wall
            rss += [first.maxrss_kb, second.maxrss_kb]
            if ok:
                pairs.append(wall)
                checks.append(second.wall)
                iterations += CAMPAIGN_ITERATIONS
    run.metric("setup_s", setup_s, "s")
    _latency_metrics(run, pairs, CAMPAIGN_TAIL, "campaign pair")
    run.metric("work_per_s", iterations / sum(pairs) if pairs else 0.0, "1/s")
    run.metric("finish_p50_s", median(checks) if checks else 0.0, "s")
    run.metric("peak_rss_mb", max(rss) / 1024.0 if rss else 0.0, "MB")
    run.notes.append("campaign: %d ops (run+check pairs) of %d iterations"
                     % (len(pairs), CAMPAIGN_ITERATIONS))
    if ctx.traced:
        book.layer_metrics(run)
        run.layers["trace.overhead_frac"] = traced_wall / plain - 1.0
        metrics_out_diagnostic(ctx, run, programs[0])
    return run


def _verify_sim_counts(ctx, run, program, counts) -> None:
    """The executor's exact counts, from the traced child, against the pin."""
    pinned = ctx.pinned("campaign", program.key)
    if pinned is None:
        return
    got = (counts.get("sim.iterations"), counts.get("sim.test_accesses"))
    want = (CAMPAIGN_ITERATIONS, pinned["test_accesses"])
    run.outcome(got == want, "%s: sim counts %r, pinned %r"
                % (program.key, got, want))


def _verify_campaign_op(ctx, run, program, first, second, traced) -> bool:
    got_run = parse_run(first.stdout)
    got_check = parse_check(second.stdout)
    problems = []
    if first.code != 0 or first.timed_out:
        problems.append("run exited %d" % first.code)
    if second.code != 0 or second.timed_out:
        problems.append("check exited %d" % second.code)
    problems += check_against({"iterations": CAMPAIGN_ITERATIONS,
                               "crashes": 0}, got_run)
    if got_run is not None:
        problems += check_against({"unique": got_run["unique"],
                                   "violations": 0}, got_check)
    pinned = ctx.pinned("campaign", program.key)
    if pinned is not None and got_run is not None:
        problems += check_against({"unique": pinned["unique"]}, got_run)
    return run.outcome(not problems, "%s%s: %s" % (
        program.key, " (traced)" if traced else "", "; ".join(problems)))


def metrics_out_diagnostic(ctx: Context, run: Run, program: Program) -> None:
    """Extra wall that ``repro run --metrics-out`` costs (observability
    plus the check and baseline it turns on), median of 3 pairs."""
    runner = ctx.runner
    dump = os.path.join(ctx.work, "diag.json")
    report = os.path.join(ctx.work, "diag-metrics.json")
    plain, observed = [], []
    for _ in range(3):
        args = run_args(program, CAMPAIGN_ITERATIONS, dump)
        plain.append(runner.run(args).wall)
        child = runner.run(args + ["--metrics-out", report])
        run.outcome(child.code == 0, "--metrics-out run exited %d" % child.code)
        observed.append(child.wall)
    run.layers["diag.metrics_out_extra_s"] = median(observed) - median(plain)


def _latency_metrics(run: Run, samples: list, level: float, what: str) -> None:
    if not samples:
        run.outcome(False, "no successful %s" % what)
        run.metric("op_p50_s", 0.0, "s")
        run.metric("op_tail_s", 0.0, "s")
        return
    run.metric("op_p50_s", median(samples), "s")
    got = tail(samples, level)
    if got is None:
        run.outcome(False, "%d %s samples: too few for a tail" %
                    (len(samples), what))
        run.metric("op_tail_s", 0.0, "s")
        return
    used, value = got
    run.metric("op_tail_s", value, "s")
    run.notes.append("op_tail_s is p%g of %d %s samples"
                     % (100 * used, len(samples), what))


# -- check -------------------------------------------------------------------------


class CheckInputs:
    """The dumps of the check workload and their reference results."""

    def __init__(self, ctx: Context):
        from repro.harness import Campaign
        from repro.io import save_campaign

        self.programs = []
        self.results = []
        self.paths = []
        for index, (label, isa, threads, ops, addresses, mutation) in \
                enumerate(CHECK_DUMPS):
            program = Program(label, isa, threads, ops, addresses,
                              derive(ctx.seed, "check", label),
                              derive(ctx.seed, "check-run", label) % 100000,
                              mutation=mutation)
            result = Campaign(config=program.test_config(),
                              seed=program.run_seed,
                              mutation=mutation).run(CHECK_ITERATIONS)
            path = os.path.join(ctx.work, "check-%d.json" % index)
            save_campaign(result, path)
            self.programs.append(program)
            self.results.append(result)
            self.paths.append(path)
        self._references = None

    def references(self) -> list:
        """Per dump, the counts ``repro check`` must print: the same
        checking path run in-process on the campaign before its dump."""
        from repro.harness import check_campaign_result

        if self._references is None:
            self._references = []
            for result in self.results:
                report = check_campaign_result(result, baseline=False).collective
                self._references.append({"unique": report.num_graphs,
                                         "violations": len(report.violations)})
        return self._references


def check_workload(ctx: Context) -> Run:
    run = Run()
    runner = ctx.runner

    def make():
        inputs = CheckInputs(ctx)
        child = runner.run(["check", inputs.paths[0]])
        run.outcome(child.code in (0, 1), "warm-up check exited %d" % child.code)
        return inputs

    inputs, setup_s = setup_repeated(make)
    book = TraceBook()
    done = []                         # (dump index, child, traced)
    start = clock()
    index = 0
    while clock() - start < ctx.seconds or not done:
        which = index % len(inputs.paths)
        index += 1
        modes = (False, True) if ctx.traced else (False,)
        for traced in modes:
            child = runner.run(["check", inputs.paths[which]], traced=traced)
            done.append((which, child, traced))
    references = inputs.references()
    for program, reference in zip(inputs.programs, references):
        pinned = ctx.pinned("check", program.key)
        if pinned is not None:
            run.outcome(pinned == reference, "%s: reference %r, pinned %r"
                        % (program.key, reference, pinned))
    walls, rss, signatures = [], [], 0
    plain = traced_wall = 0.0
    for which, child, traced in done:
        expected = references[which]
        program = inputs.programs[which]
        problems = []
        code = 1 if expected["violations"] else 0
        if child.code != code or child.timed_out:
            problems.append("exit %d, expected %d" % (child.code, code))
        problems += check_against(expected, parse_check(child.stdout))
        ok = run.outcome(not problems, "%s%s: %s" % (
            program.key, " (traced)" if traced else "", "; ".join(problems)))
        if traced:
            book.add_child(child, book.op(child.start, child.end))
            traced_wall += child.wall
            continue
        plain += child.wall
        rss.append(child.maxrss_kb)
        if ok:
            walls.append(child.wall)
            signatures += expected["unique"]
    run.metric("setup_s", setup_s, "s")
    _latency_metrics(run, walls, CHECK_TAIL, "check invocation")
    run.metric("work_per_s", signatures / sum(walls) if walls else 0.0, "1/s")
    run.metric("finish_p50_s", median(walls) if walls else 0.0, "s")
    run.metric("peak_rss_mb", max(rss) / 1024.0 if rss else 0.0, "MB")
    run.notes.append("check: %d invocations over %d dumps (%s)" % (
        len(walls), len(inputs.paths),
        ", ".join("%s %d sigs/%d violations" % (p.label, r["unique"],
                                                r["violations"])
                  for p, r in zip(inputs.programs, references))))
    if ctx.traced:
        book.layer_metrics(run)
        run.layers["trace.overhead_frac"] = traced_wall / plain - 1.0
        pipeline_diagnostic(ctx, run, inputs)
        serve_diagnostic(ctx, run)
    return run


def pipeline_diagnostic(ctx: Context, run: Run, inputs: CheckInputs) -> None:
    """Load, compile and replay time of every check dump under each
    ``--check-pipeline`` (traced; mean over the dumps)."""
    runner = ctx.runner
    for pipeline in PIPELINES:
        book = TraceBook()
        for which, path in enumerate(inputs.paths):
            child = runner.run(["check", path, "--check-pipeline", pipeline],
                               traced=True)
            expected = inputs.references()[which]
            got = parse_check(child.stdout)
            run.outcome(not check_against(expected, got),
                        "%s under %s: %r" % (path, pipeline, got))
            book.add_child(child, book.op(child.start, child.end))
        totals = layer_totals(book.spans, exclude=("op", "trace.install"))
        per = len(inputs.paths)
        prefix = "diag.pipeline.%s." % pipeline
        run.layers[prefix + "load_s"] = totals.get("io.load", 0.0) / per
        run.layers[prefix + "compile_s"] = (
            totals.get("checker.compile", 0.0) + totals.get("graph.builder", 0.0)
            + totals.get("checker.sort", 0.0)) / per
        run.layers[prefix + "replay_s"] = totals.get("checker.check", 0.0) / per


# -- serve -------------------------------------------------------------------------


def program_session(program: Program, name: str):
    """One session of ``program``: a device campaign streamed one entry
    per iteration, in the order the device produced them, cut to
    :data:`SERVE_SESSION_ENTRIES` entries with at most
    :data:`SERVE_SESSION_UNIQUE` distinct signatures.

    Once the distinct budget is spent only repeats are kept, and a short
    stream is replayed from its start, so every session carries the same
    number of entries and ends with about the same checking work at
    finalize.
    """
    from repro.errors import SignatureError
    from repro.harness import Campaign
    from repro.harness.runner import CampaignResult
    from repro.io import dump_program, signature_to_entry
    from repro.serve.protocol import PROTOCOL_VERSION, encode_frame

    campaign = Campaign(config=program.test_config(), seed=program.run_seed)
    encode = campaign.codec.encode
    chosen, seen = [], set()
    for execution in campaign.executor.run(SERVE_DEVICE_ITERATIONS):
        if execution.crashed:
            continue
        try:
            signature = encode(execution.rf)
        except SignatureError:
            continue
        if signature in seen or len(seen) < SERVE_SESSION_UNIQUE:
            seen.add(signature)
            chosen.append(signature)
    chosen = [chosen[i % len(chosen)] for i in range(SERVE_SESSION_ENTRIES)]
    part = CampaignResult(campaign.program, campaign.codec,
                          iterations=len(chosen))
    part.signature_counts = Counter(chosen)
    entries = [signature_to_entry(signature, 1) for signature in chosen]
    batches = [entries[i:i + SERVE_BATCH]
               for i in range(0, len(entries), SERVE_BATCH)]
    frames = [encode_frame({"kind": "submit", "seq": i + 1,
                            "signatures": batch, "crashes": 0})
              for i, batch in enumerate(batches)]
    hello = encode_frame({"kind": "hello", "v": PROTOCOL_VERSION,
                          "program": dump_program(campaign.program),
                          "register_width": campaign.codec.register_width,
                          "session": name})
    return serve_load.Device(name, hello, frames,
                             [len(batch) for batch in batches], part)


class Daemon:
    """One ``repro serve`` child, warmed up with the warm-up device."""

    def __init__(self, ctx: Context, warm, traced: bool, tag: str):
        self.traced = traced
        port_file = os.path.join(ctx.work, "port-%s" % tag)
        self.trace_path = os.path.join(ctx.work, "daemon-%s.json" % tag)
        self.log = open(os.path.join(ctx.work, "daemon-%s.log" % tag), "wb")
        self.proc = ctx.runner.spawn(["serve", "--port-file", port_file],
                                     traced, self.trace_path,
                                     stdout=self.log, stderr=self.log)
        self.rss_kb = 0
        self.code = None
        self.trace = None
        try:
            self.port = _wait_port(port_file, self.proc)
            # one session of the warm-up program, never measured
            serve_load.run_phase(self.port, [warm], 1, rate=1000.0)
        except BaseException:
            self.close()
            raise

    def close(self):
        if self.code is None:
            self.code, self.rss_kb, _ = stop(self.proc)
            self.log.close()
            if self.traced:
                try:
                    with open(self.trace_path) as handle:
                        self.trace = json.load(handle)
                except (OSError, ValueError):
                    self.trace = None
        return self


def _wait_port(port_file: str, proc, timeout_s: float = 30.0) -> int:
    deadline = clock() + timeout_s
    while clock() < deadline:
        if proc.poll() is not None:
            raise RuntimeError("daemon exited with %d before listening"
                               % proc.returncode)
        try:
            with open(port_file) as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.005)
    raise RuntimeError("daemon did not listen within %.0fs" % timeout_s)


class ServeInputs:
    """Session content of the serve diagnostic, made from the seed."""

    def __init__(self, ctx: Context):
        self.devices = []
        for index in range(SERVE_PROGRAMS_PER_CONFIG):
            for label, isa, threads, ops, addresses in SERVE_PROGRAMS:
                program = Program(
                    label, isa, threads, ops, addresses,
                    derive(ctx.seed, "serve", label, index),
                    derive(ctx.seed, "serve-run", label, index) % 100000)
                self.devices.append(program_session(program, program.key))
        label, isa, threads, ops, addresses = SERVE_WARMUP
        warm = Program(label, isa, threads, ops, addresses,
                       derive(ctx.seed, "serve-warm"), 1)
        self.warm = program_session(warm, "warm-up")
        self.expected = None

    def summaries(self) -> list:
        """Reference summaries: ``repro check``'s path over each device's
        multiset."""
        from repro.harness import check_campaign_result

        if self.expected is None:
            self.expected = [
                check_campaign_result(dev.result, baseline=False)
                .collective.summary() for dev in self.devices]
        return self.expected

    def verify_pins(self, ctx: Context, run: Run) -> None:
        for device, summary in zip(self.devices, self.summaries()):
            pinned = ctx.pinned("serve", device.name)
            if pinned is None:
                continue
            got = {"unique": summary["graphs"],
                   "violations": len(summary["violations"])}
            run.outcome(got == pinned, "serve %s: reference %r, pinned %r"
                        % (device.name, got, pinned))


def serve_diagnostic(ctx: Context, run: Run) -> None:
    """Per-layer numbers of the ``repro serve`` path (traced check runs).

    One traced daemon per rate, fed open loop over two connections with
    sessions cut from device campaigns; every report is checked against
    ``repro check``'s summary of the same multiset.
    """
    inputs = ServeInputs(ctx)
    phases = []
    for rate in SERVE_RATES:
        daemon = Daemon(ctx, inputs.warm, True, "diag-%g" % rate)
        try:
            result = serve_load.run_phase(daemon.port, inputs.devices,
                                          int(rate * SERVE_PHASE_S), rate=rate)
        finally:
            daemon.close()
        result.daemon = daemon
        phases.append(result)
    inputs.verify_pins(ctx, run)
    for rate, result in zip(SERVE_RATES, phases):
        _verify_phase(run, inputs, result, "%g batches/s" % rate)
    low = [b.latency for b in phases[0].acked()]
    acked_low = phases[0].acked()
    novel = sum(b.novel for b in acked_low)
    repeats = sum(b.repeats for b in acked_low)
    serve_layers(run, phases, novel, repeats)
    run.layers["serve.ack_p50_low_s"] = median(low) if low else 0.0
    got = tail(low, SERVE_TAIL) if low else None
    run.layers["serve.ack_tail_low_s"] = got[1] if got else 0.0
    run.notes.append(
        "serve diagnostic: %d programs, one session each of %d entries (%d "
        "distinct), batches of %d, open loop at %s batches/s"
        % (len(inputs.devices), SERVE_SESSION_ENTRIES, SERVE_SESSION_UNIQUE,
           SERVE_BATCH, " and ".join("%g" % r for r in SERVE_RATES)))


def _verify_phase(run: Run, inputs: ServeInputs, result, name: str) -> None:
    for error in result.errors:
        run.outcome(False, "serve %s phase: %s" % (name, error))
    for batch in result.batches:
        run.outcome(batch.acked is not None,
                    "serve %s phase: batch %d of session %s never acked"
                    % (name, batch.seq, batch.session))
    for _ in range(result.refused):
        run.outcome(False, "serve %s phase: a batch was refused (busy)" % name)
    if result.daemon.code != 0:
        run.outcome(False, "serve %s phase: daemon exited %s"
                    % (name, result.daemon.code))
    _verify_reports(run, inputs, result)


def _verify_reports(run: Run, inputs: ServeInputs, result) -> None:
    """Each report's summary must equal ``repro check``'s over the same
    multiset (the in-process reference of :meth:`ServeInputs.summaries`)."""
    expected = inputs.summaries()
    for session in result.sessions:
        device = inputs.devices[session.device]
        if session.report is None:
            run.outcome(False, "serve %s: no report" % device.name)
            continue
        problems = []
        # the report travels as JSON: compare against the same encoding
        if session.report.get("summary") != json.loads(
                json.dumps(expected[session.device])):
            problems.append("summary differs from repro check")
        if session.report.get("unique_signatures") != \
                device.result.unique_signatures:
            problems.append("unique %r, expected %r" % (
                session.report.get("unique_signatures"),
                device.result.unique_signatures))
        run.outcome(not problems, "serve %s: %s"
                    % (device.name, "; ".join(problems)))


#: daemon spans that serve one batch, on the loop or an executor thread
SERVICE_SPANS = ("serve.batch", "serve.decode", "serve.encode")


def serve_layers(run: Run, phases: list, novel: int, repeats: int) -> None:
    """Per-layer numbers of the serve daemons, per acked batch.

    Batch latency splits into generator lag, in-daemon service (the
    top-level :data:`SERVICE_SPANS`) and ``serve.transport_queue_s``,
    the remainder: sockets, the event loop and the executor hand-off,
    which no public call of the daemon brackets.  Hello and finalize are
    reported with the codec, graph and checker work inside them.
    """
    totals = Counter()
    batches = 0
    latency = lag = service = 0.0
    for result in phases:
        acked = result.acked()
        batches += len(acked)
        latency += sum(b.latency for b in acked)
        lag += sum(b.lag for b in acked)
        spans = (result.daemon.trace or {}).get("spans", [])
        for span, own in zip(spans, self_times(spans)):
            if span[1] < result.start:
                continue                 # the warm-up session
            name, parent = span[0], span[3]
            if name in ("serve.hello", "serve.finalize"):
                if parent is None or spans[parent][0] != name:
                    totals[name] += span[2] - span[1]
            else:
                totals[name] += own
            if parent is None and name in SERVICE_SPANS:
                service += span[2] - span[1]
    per = max(1, batches)
    for name in ("serve.decode", "serve.encode", "serve.hello", "serve.batch",
                 "serve.ingest_novel", "serve.dedup_hit", "serve.feed",
                 "serve.finalize"):
        run.layers[name + "_s"] = totals[name] / per
    run.layers["serve.transport_queue_s"] = max(0.0, latency - lag - service) / per
    run.layers["serve.generator_lag_s"] = lag / per
    run.layers["serve.novel_share"] = novel / max(1, novel + repeats)
    run.layers["serve.busy_replies"] = float(sum(r.refused for r in phases))
