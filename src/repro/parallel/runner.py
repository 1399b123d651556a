"""The fault-sharded backend of :func:`repro.campaign.execute`.

:func:`run_parallel` partitions a campaign's resolved universe into
shards (:func:`plan_shards`), describes each shard as a
:class:`ShardTask` — its index, the shard count and a shard campaign
holding the shard's faults and scalar settings
(:func:`repro.campaign.shard_campaign`) — runs the tasks in ``jobs``
worker processes or in-process (:mod:`repro.parallel.executor`), and
merges the shard results deterministically (:mod:`repro.parallel.merge`).
The merged detections, detection cycles and coverage are bit-identical
to a single-process run for any shard count and executor.

Resilience composes with parallelism shard-wise:

* **Checkpoints** — with a campaign ``checkpoint_path`` every shard
  checkpoints its own engine into ``<path>.shardII-of-NN``, bound to the
  shard's fault subset *and* its (index, total) position.  A resume
  resumes the shards whose checkpoint exists (finished shards replay
  from their final checkpoint without re-simulating) and starts the rest
  fresh — exactly what a campaign killed mid-run needs.  A resume that
  finds no checkpoint of its own partition (the files on disk were
  written under another ``jobs``) is refused with
  :class:`~repro.robust.checkpoint.CheckpointError` rather than silently
  recomputed.
* **Budgets** — the budget is armed per shard; any shard's breach marks
  the merged result ``truncated`` (see :mod:`repro.parallel.merge`).
* **Interrupts** — Ctrl-C surfaces as
  :class:`repro.robust.checkpoint.CampaignInterrupted` carrying the base
  checkpoint path; completed and in-flight shards keep their durable
  progress.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

from repro.faults.model import Fault
from repro.obs.span import SpanWriter, TraceContext
from repro.parallel.executor import (
    MultiprocessExecutor,
    SequentialExecutor,
    ShardTask,
)
from repro.parallel.merge import merge_results
from repro.result import FaultSimResult
from repro.robust.checkpoint import CampaignInterrupted, CheckpointError, checkpoint_files

if TYPE_CHECKING:
    from repro.campaign import Campaign, Universe


class ShardExecutor(Protocol):
    """What ``run_parallel`` needs from an executor: run tasks, in order."""

    def run(self, tasks: Sequence[ShardTask]) -> List[FaultSimResult]: ...


def shard_checkpoint_path(base: str, index: int, total: int) -> str:
    """The per-shard checkpoint file under a campaign's base path."""
    return f"{base}.shard{index:02d}-of-{total:02d}"


def plan_shards(faults: Sequence[Fault], jobs: int) -> List[List[Fault]]:
    """The shard partition a campaign over *faults* runs: round-robin.

    Fault *i* of the sorted universe goes to shard ``i mod jobs``, which
    interleaves neighbouring sites across shards.  Faulty machines never
    interact, so any partition merges to the same result; the partition
    only sets load balance, and it is a pure function of the arguments —
    never of worker timing.  Empty shards are dropped (``jobs`` larger
    than the universe gives one shard per fault), and an empty universe
    gives one empty shard.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ordered = sorted(faults)
    if not ordered:
        return [[]]
    return [ordered[index::jobs] for index in range(min(jobs, len(ordered)))]


def run_parallel(
    campaign: "Campaign",
    universe: "Universe",
    executor: Optional[ShardExecutor] = None,
) -> FaultSimResult:
    """Run *campaign* over *universe*, sharded over ``campaign.jobs`` workers.

    With the default executor, ``jobs > 1`` runs shards in a process pool
    and ``jobs == 1`` runs the (single) shard in-process.  Passing an
    ``executor`` (:class:`SequentialExecutor` or
    :class:`MultiprocessExecutor`) overrides that choice without touching
    the partition — the standard trick for testing that backends agree.
    The result covers *universe*'s faults; :func:`repro.campaign.execute`,
    the only caller, expands it.

    A campaign ``tracer`` cannot cross the process boundary: an enabled
    one makes every worker record a :class:`repro.obs.RecordingTracer` and
    the merged telemetry lands on the result (the merged totals reconcile
    exactly with the merged work counters).

    ``trace_dir`` arms cross-process span tracing: every shard worker
    appends its span tree (shard → cycle ranges) to the directory,
    parented under ``trace_ctx`` (a fresh root trace when None), and the
    campaign writes ``plan``/``merge`` spans plus ``telemetry.json`` and
    ``manifest.json`` sidecars.  Tracing implies telemetry.
    """
    from repro.campaign import shard_campaign

    circuit, jobs = campaign.circuit, campaign.jobs
    trace_dir, trace_ctx = campaign.trace_dir, campaign.trace_ctx
    writer: Optional[SpanWriter] = None
    if trace_dir is not None:
        if trace_ctx is None:
            trace_ctx = TraceContext.new_trace()
            campaign = replace(campaign, trace_ctx=trace_ctx)
        writer = SpanWriter(trace_dir, label="campaign")
    telemetry = trace_dir is not None or bool(
        campaign.tracer is not None and campaign.tracer.enabled
    )

    plan_started = time.time()
    shards = plan_shards(universe.faults, jobs)
    if writer is not None and trace_ctx is not None:
        writer.emit(
            "plan",
            trace_ctx.child(),
            plan_started,
            time.time(),
            shards=len(shards),
            jobs=jobs,
        )
    total = len(shards)
    base_path = campaign.checkpoint_path
    if campaign.resume:
        assert base_path is not None  # a resume has a path: see Campaign
        _check_resumable(base_path, total)
    tasks = [
        ShardTask(
            index,
            total,
            shard_campaign(
                campaign,
                universe,
                shard,
                (index, total),
                shard_checkpoint_path(base_path, index, total)
                if base_path is not None
                else None,
            ),
            telemetry=telemetry,
        )
        for index, shard in enumerate(shards)
    ]

    if executor is None:
        executor = MultiprocessExecutor(jobs) if jobs > 1 else SequentialExecutor()

    started = time.perf_counter()
    try:
        results = executor.run(tasks)
    except CampaignInterrupted as exc:
        # Surface the campaign's *base* path in the resume hint, not the
        # individual shard file the interrupt happened to land in.
        raise CampaignInterrupted(base_path, exc.cycles_done) from None
    except KeyboardInterrupt:
        raise CampaignInterrupted(base_path) from None
    merge_started = time.time()
    merged = merge_results(results, wall_seconds=time.perf_counter() - started)
    merged.circuit_name = circuit.name
    if writer is not None and trace_ctx is not None and trace_dir is not None:
        writer.emit(
            "merge",
            trace_ctx.child(),
            merge_started,
            time.time(),
            shards=total,
            detected=merged.num_detected,
        )
        _write_trace_sidecars(trace_dir, trace_ctx, merged, jobs, total)
        writer.close()
    return merged


def _check_resumable(base_path: str, total: int) -> None:
    """Refuse a resume that has no checkpoint of this *total*-shard partition.

    Shard files written under another ``jobs`` belong to another
    partition and can never resume here; without this check every shard
    would start fresh and the resume would silently become a recompute.
    """
    own = [shard_checkpoint_path(base_path, index, total) for index in range(total)]
    if not any(os.path.exists(path) for path in own):
        found = ", ".join(checkpoint_files(base_path)) or "none"
        raise CheckpointError(
            f"no checkpoint of this {total}-shard partition at {base_path!r} "
            f"to resume from (found: {found})"
        )


def _write_trace_sidecars(
    trace_dir: str,
    trace_ctx: TraceContext,
    merged: FaultSimResult,
    jobs: int,
    shards: int,
) -> None:
    """The inspection sidecars: merged telemetry summary + trace manifest.

    File names carry the trace id so concurrent campaigns sharing one
    trace directory (the serve worker pool) never clobber each other;
    ``repro inspect`` resolves them by the trace it is rendering.
    """
    manifest = {
        "trace_id": trace_ctx.trace_id,
        "circuit": merged.circuit_name,
        "engine": merged.engine,
        "jobs": jobs,
        "shards": shards,
    }
    suffix = f"-{trace_ctx.trace_id}"
    with open(os.path.join(trace_dir, f"manifest{suffix}.json"), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if merged.telemetry is not None:
        from repro.obs.export import write_metrics_json

        write_metrics_json(
            merged.telemetry, os.path.join(trace_dir, f"telemetry{suffix}.json")
        )
