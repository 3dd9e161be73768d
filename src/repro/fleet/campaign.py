"""Whole-campaign orchestration across a worker fleet.

Glues the planner, workers, supervisor and merge stage together: the
host generates (or receives) the test program, deals its seed blocks
onto worker shards, supervises the processes, and merges the shipped
signature multisets into one :class:`CampaignResult` that the unchanged
collective/baseline checkers consume.  Because seed blocks are derived
independently of the worker count (:mod:`repro.fleet.sharding`), the
merged multiset is identical to a serial run's for the same seed.

Shards whose workers died (crash, non-zero exit, timeout) after all
retries contribute no signatures; their iterations are recorded as
crashes on the merged result — the paper's bug-3 outcome, aggregated
exactly like in-simulation crashes.
"""

from __future__ import annotations

from repro.fleet.merge import merge_campaign_results
from repro.fleet.progress import FleetProgress
from repro.fleet.sharding import partition_blocks, plan_blocks
from repro.fleet.supervisor import FleetConfig, FleetSupervisor
from repro.fleet.worker import WorkerTask
from repro.harness.checking import CampaignResult
from repro.instrument.signature import SignatureCodec
from repro.io import dump_program, load_campaign
from repro.lint.engine import gate_iterations, lint_program, record_gate
from repro.obs import get_obs
from repro.testgen.generator import generate


def plan_campaign_tasks(program, config, iterations: int, jobs: int, *,
                        seed: int = 0, block: int = None,
                        instrumentation: str = "signature",
                        os_model: bool = False, sync_barriers: bool = False,
                        detailed: bool = False, bug: int = None,
                        l1_lines: int = 4, die_on_crash: bool = False,
                        collect_metrics: bool = False,
                        include_ws: bool = True,
                        mutation: str = None) -> list[WorkerTask]:
    """Deal a campaign's seed blocks into per-worker shard tasks."""
    doc = dump_program(program)
    isa = config.isa if config is not None else "arm"
    shards = partition_blocks(plan_blocks(iterations, block), jobs)
    return [
        WorkerTask(program_doc=doc, blocks=shard, seed=seed, config=config,
                   isa=isa, instrumentation=instrumentation,
                   os_model=os_model, sync_barriers=sync_barriers,
                   detailed=detailed, bug=bug, l1_lines=l1_lines,
                   mutation=mutation,
                   die_on_crash=die_on_crash, collect_metrics=collect_metrics,
                   include_ws=include_ws)
        for shard in shards
    ]


def run_campaign_fleet(config=None, program=None, *, iterations: int,
                       jobs: int, seed: int = 0, block: int = None,
                       instrumentation: str = "signature",
                       os_model: bool = False, sync_barriers: bool = False,
                       detailed: bool = False, bug: int = None,
                       l1_lines: int = 4, die_on_crash: bool = False,
                       include_ws: bool = True, lint: str = None,
                       mutation: str = None,
                       fleet: FleetConfig = None,
                       on_beat=None) -> CampaignResult:
    """Run one campaign sharded over ``jobs`` worker processes.

    Returns the merged :class:`CampaignResult`; for identical seeds its
    unique-signature multiset equals the serial ``Campaign.run`` one.

    Args:
        config: test configuration; used to generate ``program`` when
            none is given and to size layout/registers on the workers.
        program: explicit test program (host-side, optional).
        iterations: total iterations across all shards.
        jobs: worker process count (also the supervisor's concurrency).
        seed: campaign base seed; per-block seeds derive from it.
        block: seed-block size override (tests); default
            :data:`~repro.fleet.sharding.DEFAULT_BLOCK`.
        lint: static-lint gate policy (``"skip"``/``"fail"``), applied
            host-side *before* any shard is dispatched, so statically
            wasted iterations never reach a worker.
        fleet: supervision knobs; ``jobs`` here overrides its field.
        on_beat: ``callable(ProgressSnapshot)`` invoked on every worker
            heartbeat and shard completion (``repro run --progress``).
        (remaining knobs mirror the CLI ``run`` command.)
    """
    if jobs < 1:
        raise ValueError("jobs must be positive; got %r" % (jobs,))
    obs = get_obs()
    if program is None:
        if config is None:
            raise ValueError("need a program or a config")
        with obs.span("generate"):
            program = generate(config)
    register_width = config.register_width if config is not None else 32
    with obs.span("instrument"):
        codec = SignatureCodec(program, register_width)

    skipped_iterations = 0
    if lint not in (None, "off"):
        report = lint_program(program, codec=codec, config=config)
        decision = gate_iterations(report, lint, iterations)
        record_gate(decision)
        iterations = decision.run_iterations
        skipped_iterations = decision.skipped_iterations

    obs.emit("campaign.plan", iterations=iterations,
             blocks=len(plan_blocks(iterations, block)))
    tasks = plan_campaign_tasks(
        program, config, iterations, jobs, seed=seed, block=block,
        instrumentation=instrumentation, os_model=os_model,
        sync_barriers=sync_barriers, detailed=detailed, bug=bug,
        l1_lines=l1_lines, mutation=mutation, die_on_crash=die_on_crash,
        collect_metrics=obs.enabled, include_ws=include_ws)
    base = FleetConfig() if fleet is None else fleet
    progress = (FleetProgress()
                if obs.enabled or on_beat is not None else None)
    supervisor = FleetSupervisor(
        FleetConfig(jobs=jobs, timeout_s=base.timeout_s,
                    max_retries=base.max_retries,
                    start_method=base.start_method),
        progress=progress, on_beat=on_beat)
    obs.gauge("fleet.jobs").set(jobs)
    obs.counter("fleet.shards").inc(len(tasks))
    obs.emit("fleet.plan", shards=len(tasks), jobs=jobs,
             iterations=iterations)
    with obs.span("execute"):
        outcomes = supervisor.run(tasks)

    with obs.span("fleet.merge") as span:
        shards = [load_campaign(outcome.payload) for outcome in outcomes
                  if not outcome.crashed]
        # seed the merge with a host-side empty result so program
        # identity is anchored to the host's own program object even
        # when every shard crashed
        merged = merge_campaign_results(
            [CampaignResult(program, codec)] + shards)
        for outcome in outcomes:
            if outcome.crashed:
                merged.iterations += outcome.iterations
                merged.crashes += outcome.iterations
        merged.skipped_iterations += skipped_iterations
    obs.histogram("fleet.merge_seconds").observe(span.elapsed)
    obs.emit("fleet.merge", shards=len(outcomes),
             crashed_shards=sum(1 for o in outcomes if o.crashed),
             iterations=merged.iterations,
             unique_signatures=merged.unique_signatures)
    obs.emit("campaign.result", iterations=merged.iterations,
             unique_signatures=merged.unique_signatures,
             crashes=merged.crashes,
             skipped_iterations=merged.skipped_iterations,
             signature_asserts=merged.signature_asserts)
    if obs.enabled:
        obs.gauge("fleet.unique_signatures").set(merged.unique_signatures)
        obs.counter("fleet.crashed_iterations").inc(
            sum(o.iterations for o in outcomes if o.crashed))
    return merged
