"""Recompute ``pins.json``: the exact outputs the benchmark expects.

Usage, from the root of a checkout::

    python3 perfbench/pin.py            # the default and held-out seeds

For every pinned seed it records, per campaign op, the unique-signature
count and the executor's exact test-access count; per check dump, the
unique-signature and violation counts; per serve device, the same.  The
values come from the library, in-process, independently of the command
line that the benchmark times.  Re-pin only for a change that is meant
to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def campaign_pins(seed: int) -> dict:
    from repro.harness import Campaign, check_campaign_result
    from workloads import CAMPAIGN_ITERATIONS, campaign_programs

    pins = {}
    for program in campaign_programs(seed):
        extra = {}
        if program.detailed:
            from repro.sim.detailed import DetailedExecutor
            from repro.sim.faults import FaultConfig
            from repro.sim.platform import GEM5_X86_8CORE

            faults = FaultConfig(bug=None, l1_lines=4)
            extra = {"platform": GEM5_X86_8CORE,
                     "executor_cls": lambda *a, **kw: DetailedExecutor(
                         *a, faults=faults, **kw)}
        campaign = Campaign(config=program.test_config(),
                            seed=program.run_seed, **extra)
        result = campaign.run(CAMPAIGN_ITERATIONS)
        outcome = check_campaign_result(result, baseline=False)
        pins[program.key] = {"unique": result.unique_signatures,
                             "violations": len(outcome.collective.violations),
                             "test_accesses": result.test_accesses}
    return pins


def check_pins(ctx) -> dict:
    from workloads import CheckInputs

    inputs = CheckInputs(ctx)
    return {program.key: reference for program, reference
            in zip(inputs.programs, inputs.references())}


def serve_pins(ctx) -> dict:
    from workloads import ServeInputs

    inputs = ServeInputs(ctx)
    return {device.name: {"unique": summary["graphs"],
                          "violations": len(summary["violations"])}
            for device, summary in zip(inputs.devices, inputs.summaries())}


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import run
    import workloads

    work = os.path.join(root, ".perfbench_work", "pin")
    os.makedirs(work, exist_ok=True)
    pins = {}
    try:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            ctx = workloads.Context(root, work, seed, 0.0, False, {})
            pins[str(seed)] = {"campaign": campaign_pins(seed),
                               "check": check_pins(ctx),
                               "serve": serve_pins(ctx)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        run._remove_if_empty(os.path.dirname(work))
    with open(os.path.join(HERE, "pins.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
