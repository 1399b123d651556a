"""The one drive loop every incremental engine runs under.

Each engine exposes ``advance(vectors, limit) -> cycles applied``: it
takes at least one and at most ``limit`` vectors from the iterator
``vectors`` — a per-cycle engine steps once, ``vsim`` runs one scheduled
window.  :func:`drive` owns everything else: the run budget (checked
between advances; a cycle budget also clips each advance, so a run stops
at the exact cycle), the checkpoint cadence (advances are clipped at
every checkpoint, so snapshots fall on window boundaries), the SIGINT
latch, the tracer's ``run_start``/``run_end`` and the
:class:`~repro.result.FaultSimResult`.  It imports only
:mod:`repro.result` and the standard library, so every engine can use it.
"""

from __future__ import annotations

import itertools
import signal
import time
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.result import FaultSimResult


def drive(
    simulator: Any,
    vectors: Iterable[Sequence[int]],
    budget: Any = None,
    *,
    start: int = 0,
    every: int = 0,
    save: Optional[Callable[[int], None]] = None,
) -> FaultSimResult:
    """Apply ``vectors[start:]`` to *simulator* and package the result.

    *simulator* is any engine with ``advance``; the result's label is its
    ``engine_name``.  ``start`` is the first vector to apply (a resumed
    run restores the engine first).  With ``save``, ``save(cycle)`` runs
    every ``every`` cycles after ``start``, on a latched interrupt and
    once at the end.
    """
    vectors = list(vectors)
    total = len(vectors)
    pending = itertools.islice(vectors, start, None)
    interrupted: list = []
    previous_handler = None
    if save is not None:
        try:
            previous_handler = signal.signal(
                signal.SIGINT, lambda signum, frame: interrupted.append(signum)
            )
        except ValueError:  # not the main thread: interrupts stay immediate
            pass
    trace = simulator.tracer
    circuit = getattr(simulator, "original_circuit", simulator.circuit)
    if trace is not None:
        trace.run_start(simulator.engine_name, circuit.name)
    clock = budget.start() if budget else None
    max_cycles = budget.max_cycles if budget else None
    started = time.perf_counter()
    truncation_reason = None
    position = start
    try:
        while position < total:
            if interrupted and save is not None:
                save(position)
                raise KeyboardInterrupt
            if clock is not None:
                breach = clock.check(simulator.counters.cycles)
                if breach is not None:
                    truncation_reason = breach.describe()
                    if trace is not None:
                        trace.budget_breach(breach.kind, breach.limit, breach.actual)
                    break
            limit = total - position
            if save is not None and every:
                limit = min(limit, every - (position - start) % every)
            if max_cycles is not None:
                limit = min(limit, max_cycles - simulator.counters.cycles)
            position += simulator.advance(pending, limit)
            if (
                save is not None
                and every
                and (position - start) % every == 0
                and position < total
            ):
                save(position)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
    if save is not None:
        save(position)
    elapsed = time.perf_counter() - started
    result = FaultSimResult(
        engine=simulator.engine_name,
        circuit_name=circuit.name,
        num_faults=len(simulator.faults),
        num_vectors=position,
        detected=dict(simulator.detected),
        potentially_detected=dict(simulator.potentially_detected),
        counters=simulator.counters,
        memory=simulator.memory,
        wall_seconds=elapsed,
        truncated=truncation_reason is not None,
        truncation_reason=truncation_reason,
        axis_windows=dict(getattr(simulator, "axis_windows", {})),
        responses=(
            simulator.responses_by_fault() if simulator.record_responses else None
        ),
    )
    if trace is not None:
        trace.run_end(elapsed)
        result.telemetry = trace.telemetry()
    return result
