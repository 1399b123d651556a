"""Fault-sharded parallel campaign execution.

Concurrent fault simulation is embarrassingly parallel along the fault
axis: faulty machines interact with the good machine, never with each
other, so the universe can be partitioned into shards, each shard
simulated by an independent engine (in a worker process or in-process),
and the shard results merged into a campaign result whose detections are
bit-identical to a single-process run — for any shard count or executor.
The partition is round-robin over the sorted universe
(:func:`repro.parallel.runner.plan_shards`); since any partition merges
to the same answer, it only sets load balance.

* :mod:`repro.parallel.executor` — the multiprocessing pool and its
  sequential in-process twin, plus the picklable per-shard task.
* :mod:`repro.parallel.merge` — the deterministic merge (detections,
  counters, telemetry, modelled memory) and its exactness contract.
* :mod:`repro.parallel.runner` — ``plan_shards`` and ``run_parallel``,
  the sharded backend of :func:`repro.campaign.execute`: partition,
  execute, merge; composes with budgets, per-shard checkpoints, and
  resume.
"""

from repro.parallel.executor import (
    MultiprocessExecutor,
    SequentialExecutor,
    ShardTask,
    simulate_shard,
)
from repro.parallel.merge import (
    merge_counters,
    merge_memory,
    merge_results,
    merge_telemetry,
)
from repro.parallel.runner import (
    plan_shards,
    run_parallel,
    shard_checkpoint_path,
)

__all__ = [
    "MultiprocessExecutor",
    "SequentialExecutor",
    "ShardTask",
    "merge_counters",
    "merge_memory",
    "merge_results",
    "merge_telemetry",
    "plan_shards",
    "run_parallel",
    "shard_checkpoint_path",
    "simulate_shard",
]
