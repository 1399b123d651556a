"""Shard execution backends: multiprocessing workers and a sequential twin.

A :class:`ShardTask` is a self-contained, picklable description of one
shard: its index, the shard count and a :class:`repro.campaign.Campaign`
over the shard's faults.  :func:`simulate_shard` runs it with
:func:`repro.campaign.execute` and returns a
:class:`repro.result.FaultSimResult`; it is a module-level function so
the ``multiprocessing`` start methods that re-import (spawn/forkserver)
can find it.

Two executors run task lists:

* :class:`MultiprocessExecutor` — a process pool of ``jobs`` workers
  consuming tasks as they free up (``imap_unordered``).  Results are
  re-ordered by shard index before returning, so completion order never
  leaks into the merged result.
* :class:`SequentialExecutor` — the same tasks in-process, in shard
  order.  The fallback when ``multiprocessing`` is unavailable or
  unwanted (``--jobs 1``), the debug mode (breakpoints work), and the
  determinism oracle: both executors must produce identical outcomes.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.obs.span import SpanWriter, TraceContext
from repro.result import FaultSimResult

if TYPE_CHECKING:
    from repro.campaign import Campaign
    from repro.obs.tracer import RecordingTracer


@dataclass
class ShardTask:
    """One shard of a campaign (picklable): its position and its campaign.

    ``campaign`` holds the shard's faults and scalar settings only (see
    :func:`repro.campaign.shard_campaign`): no tracer, no full universe,
    no collapse map.  ``telemetry`` makes the worker record a
    :class:`~repro.obs.RecordingTracer`; the campaign's ``trace_dir`` and
    ``trace_ctx`` make it append its span tree to the campaign's trace.
    """

    index: int
    total: int
    campaign: "Campaign"
    telemetry: bool = False


def _make_cycle_clock_tracer() -> "RecordingTracer":
    """A RecordingTracer that also wall-clocks every cycle boundary."""
    import time

    from repro.obs import RecordingTracer

    class CycleClockTracer(RecordingTracer):
        def __init__(self) -> None:
            super().__init__()
            self.cycle_clock: List[Tuple[int, float]] = []

        def cycle_start(self, cycle: int) -> None:
            self.cycle_clock.append((cycle, time.time()))
            super().cycle_start(cycle)

    return CycleClockTracer()


def _emit_cycle_range_spans(
    writer: SpanWriter,
    parent: TraceContext,
    cycle_clock: List[Tuple[int, float]],
    end_time: float,
    max_ranges: int = 8,
) -> None:
    """Chunk the cycle clock into at most *max_ranges* child spans."""
    if not cycle_clock:
        return
    chunk = max(1, (len(cycle_clock) + max_ranges - 1) // max_ranges)
    for start_index in range(0, len(cycle_clock), chunk):
        group = cycle_clock[start_index:start_index + chunk]
        next_index = start_index + chunk
        range_end = (
            cycle_clock[next_index][1] if next_index < len(cycle_clock) else end_time
        )
        writer.emit(
            f"cycles {group[0][0]}-{group[-1][0]}",
            parent.child(),
            group[0][1],
            range_end,
            first_cycle=group[0][0],
            last_cycle=group[-1][0],
        )


def simulate_shard(task: ShardTask) -> Tuple[int, FaultSimResult]:
    """Run one shard to completion; returns ``(shard_index, result)``.

    With tracing armed (the campaign's ``trace_dir`` + ``trace_ctx``) the
    worker process writes a ``shard i/N`` span carrying the shard's work
    counters and cycle-range child spans into the shared trace directory.
    """
    import time

    from repro.campaign import execute
    from repro.obs import RecordingTracer

    campaign = task.campaign
    tracing = campaign.trace_dir is not None and campaign.trace_ctx is not None
    tracer: Optional[RecordingTracer]
    if tracing:
        tracer = _make_cycle_clock_tracer()
    elif task.telemetry:
        tracer = RecordingTracer()
    else:
        tracer = None
    shard_started = time.time()
    result = execute(replace(campaign, tracer=tracer))
    if tracing:
        _write_shard_trace(task, tracer, result, shard_started)
    return task.index, result


def _write_shard_trace(
    task: ShardTask,
    tracer: Optional["RecordingTracer"],
    result: FaultSimResult,
    shard_started: float,
) -> None:
    """Append this shard's span tree to the trace directory.  The shard
    span carries the work counters so the inspection CLI can build the
    balance table from spans alone."""
    import time

    campaign = task.campaign
    trace_dir, trace_ctx = campaign.trace_dir, campaign.trace_ctx
    assert trace_dir is not None and trace_ctx is not None
    assert campaign.universe is not None
    writer = SpanWriter(trace_dir, label=f"shard{task.index:02d}")
    try:
        shard_ctx = trace_ctx.child()
        counters = result.counters
        writer.emit(
            f"shard {task.index}/{task.total}",
            shard_ctx,
            shard_started,
            time.time(),
            shard=task.index,
            total=task.total,
            engine=result.engine,
            faults=len(campaign.universe.faults),
            detected=result.num_detected,
            cycles=counters.cycles,
            good_evaluations=counters.good_evaluations,
            fault_evaluations=counters.fault_evaluations,
            element_visits=counters.element_visits,
            events=counters.events,
            gates_scheduled=counters.gates_scheduled,
            pid=os.getpid(),
        )
        _emit_cycle_range_spans(
            writer, shard_ctx, getattr(tracer, "cycle_clock", []), time.time()
        )
    finally:
        writer.close()


#: Callback fired after each completed shard: (shard_index, result).
ShardCallback = Callable[[int, FaultSimResult], None]


class SequentialExecutor:
    """Run shard tasks in-process, in shard order.

    ``on_result`` fires after every completed shard — the chaos/test hook
    for injecting interrupts at deterministic points of a campaign.
    """

    def __init__(self, on_result: Optional[ShardCallback] = None) -> None:
        self.on_result = on_result

    def run(self, tasks: Sequence[ShardTask]) -> List[FaultSimResult]:
        outcomes: List[Tuple[int, FaultSimResult]] = []
        for task in tasks:
            index, result = simulate_shard(task)
            outcomes.append((index, result))
            if self.on_result is not None:
                self.on_result(index, result)
        outcomes.sort(key=lambda pair: pair[0])
        return [result for _, result in outcomes]


class MultiprocessExecutor:
    """Run shard tasks in a pool of ``jobs`` worker processes.

    Tasks are consumed dynamically (a free worker takes the next pending
    shard) and results are returned in shard order regardless of
    completion order.  On interrupt the pool is terminated — worker-side
    periodic checkpoints remain the resume points for unfinished shards.
    """

    def __init__(self, jobs: int, on_result: Optional[ShardCallback] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.on_result = on_result

    def run(self, tasks: Sequence[ShardTask]) -> List[FaultSimResult]:
        if not tasks:
            return []
        workers = min(self.jobs, len(tasks))
        if workers == 1:
            return SequentialExecutor(self.on_result).run(tasks)
        outcomes: List[Tuple[int, FaultSimResult]] = []
        context = multiprocessing.get_context()
        with context.Pool(processes=workers) as pool:
            for index, result in pool.imap_unordered(simulate_shard, tasks):
                outcomes.append((index, result))
                if self.on_result is not None:
                    self.on_result(index, result)
        outcomes.sort(key=lambda pair: pair[0])
        return [result for _, result in outcomes]
