"""Sharded multi-process campaign orchestration (the fleet).

MTraceCheck's runtime is distributed by design: many devices under
validation execute the same constrained-random test concurrently, each
collecting a compact signature multiset that is shipped to one host for
collective checking (paper Section 1).  This package reproduces that
split for the simulation pipeline:

* :mod:`~repro.fleet.sharding` — deterministic seed-block planning; the
  block plan depends only on the iteration count, so the merged result
  of any worker count equals the serial run's;
* :mod:`~repro.fleet.worker` — the device side: a picklable shard task
  executed in a ``multiprocessing`` worker, handing its signatures back
  through the :mod:`repro.io` JSON format;
* :mod:`~repro.fleet.supervisor` — the host side: bounded-concurrency
  process supervision with per-shard timeouts and bounded retries;
  worker death is the paper's bug-3 crash outcome, never a campaign
  abort;
* :mod:`~repro.fleet.merge` — signature-multiset union (count summing,
  one representative execution per unique signature);
* :mod:`~repro.fleet.campaign` — :func:`run_campaign_fleet`, the
  one-call orchestration used by ``Campaign.run(jobs=N)`` and the CLI.

Only the sharding primitives are imported eagerly — the heavier modules
load on first attribute access, which also keeps
``repro.harness.runner``'s import of the seed-derivation scheme
cycle-free.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.fleet.sharding import (
    DEFAULT_BLOCK,
    OS_SEED_SALT,
    derive_os_seed,
    derive_seed,
    partition_blocks,
    plan_blocks,
    shard_iterations,
)

__getattr__, __dir__, _lazy_names = lazy_exports(__name__, {
    "repro.fleet.merge": ("merge_campaign_results",),
    "repro.fleet.worker": ("WorkerTask", "CRASH_EXIT", "execute_task",
                           "run_worker_task", "worker_main"),
    "repro.fleet.remote": ("TcpWorkerPool", "remote_worker_main",
                           "task_from_doc", "task_to_doc"),
    "repro.fleet.supervisor": ("FleetConfig", "FleetSupervisor",
                               "ShardOutcome"),
    "repro.fleet.campaign": ("plan_campaign_tasks", "run_campaign_fleet"),
})

__all__ = ["DEFAULT_BLOCK", "OS_SEED_SALT", "derive_os_seed", "derive_seed",
           "partition_blocks", "plan_blocks", "shard_iterations"] + _lazy_names
