"""End-to-end benchmark of the ``repro`` campaign and check paths.

Run from the root of a checkout (the directory holding ``src/repro``)::

    python3 perfbench/run.py --workload check --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached to
the program.  ``--trace 1`` runs the same workload with bench-side
probes around the program's public calls (:mod:`probes`) and reports
the per-layer metrics instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: end-to-end metrics: name -> (unit, meaning per workload)
END_TO_END = {
    "setup_s": ("s", "median of the set-up repetitions: everything before "
                     "the first timed operation"),
    "peak_rss_mb": ("MB", "peak RSS of the CLI children"),
    "work_per_s": ("1/s", "campaign: device iterations per second of run+check "
                          "wall; check: unique signatures checked per second"),
    "op_p50_s": ("s", "campaign: run+check pair wall; check: one repro check "
                      "process"),
    "op_tail_s": ("s", "campaign: p75 of the pairs; check: p80 of the checks"),
    "finish_p50_s": ("s", "time from complete input to verdict: the repro "
                          "check process"),
}
WORKLOADS = ("campaign", "check")
#: the default seed and a held-out seed, both pinned in pins.json
DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        print("error: no src/repro in %s; run from the root of a checkout"
              % root, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    with open(os.path.join(HERE, "pins.json")) as handle:
        pins = json.load(handle)
    work = os.path.join(root, ".perfbench_work", "%s-%d" % (args.workload,
                                                            os.getpid()))
    os.makedirs(work)
    try:
        ctx = workloads.Context(root, work, args.seed, args.seconds,
                                bool(args.trace), pins)
        run = getattr(workloads, args.workload + "_workload")(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _remove_if_empty(os.path.dirname(work))
    return report(args, run)


def _remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass                   # another run still works there


def report(args, run) -> int:
    import probes

    print("workload %s, seed %d, %.0f s%s" % (
        args.workload, args.seed, args.seconds, ", traced" if args.trace else ""))
    for note in run.notes:
        print("  " + note)
    print("  error_rate %.4f (%d failed of %d attempted)" % (
        run.failed / max(1, run.attempted), run.failed, run.attempted))
    for failure in run.failures:
        print("  FAILED: " + failure)
    metrics = {}
    if args.trace:
        for name, (unit, moves, where) in probes.LAYERS.items():
            value = float(run.layers.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            print("  %-32s %14.6g %-6s moves %s on %s"
                  % (name, value, unit, moves, where))
    else:
        for name, (unit, meaning) in END_TO_END.items():
            value = float(run.metrics[name][0])
            metrics[name] = {"value": value, "unit": unit}
            print("  %-14s %12.6g %-4s %s" % (name, value, unit, meaning))
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
