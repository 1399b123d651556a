"""Run budgets and the watchdog the engine drive loop consults.

A :class:`Budget` bounds one simulation run along two axes — wall-clock
seconds and clock cycles.  :func:`repro.drive.drive` checks it between
engine advances (a cycle, or one vsim window) and clips every advance at
a cycle budget; on a breach the run stops *cleanly*: the partial
:class:`repro.result.FaultSimResult` comes back with ``truncated=True`` and
a human-readable ``truncation_reason``, and the breach is reported through
the run's :class:`repro.obs.Tracer` (``budget_breach`` hook).

A cycle budget is exact.  A wall-clock breach is noticed at the next
advance boundary, so one cycle (or window) may overshoot, but no
partial state ever leaks into the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class BudgetBreach:
    """One exceeded limit: which axis, the limit, and the observed value."""

    kind: str  # "wall" | "cycles"
    limit: float
    actual: float

    def describe(self) -> str:
        if self.kind == "wall":
            return f"wall-clock budget exceeded ({self.actual:.3f}s > {self.limit:.3f}s)"
        return f"cycle budget exceeded ({int(self.actual)} >= {int(self.limit)})"


@dataclass(frozen=True)
class Budget:
    """Per-run resource limits.  ``None`` on any axis means unlimited."""

    max_wall_seconds: Optional[float] = None
    max_cycles: Optional[int] = None

    def __bool__(self) -> bool:
        return self.max_wall_seconds is not None or self.max_cycles is not None

    def start(self) -> "BudgetClock":
        """Arm the budget against the current wall clock."""
        return BudgetClock(self, time.perf_counter())

    def tightened(self, max_wall_seconds: float) -> "Budget":
        """This budget with its wall axis tightened to the smaller limit.

        Composes independent caps — a service-wide per-job wall cap and a
        per-submit deadline budget, say — without either silently widening
        the other; the cycle axis is left as it is.
        """
        if self.max_wall_seconds is not None:
            max_wall_seconds = min(self.max_wall_seconds, max_wall_seconds)
        return Budget(max_wall_seconds=max_wall_seconds, max_cycles=self.max_cycles)


class BudgetClock:
    """An armed budget: call :meth:`check` between engine advances."""

    def __init__(self, budget: Budget, started: float) -> None:
        self.budget = budget
        self.started = started

    def check(self, cycles_done: int) -> Optional[BudgetBreach]:
        """The first breached limit, or None while everything is in budget.

        ``cycles_done`` counts cycles already simulated (so ``max_cycles=n``
        admits exactly *n* cycles).
        """
        budget = self.budget
        if budget.max_cycles is not None and cycles_done >= budget.max_cycles:
            return BudgetBreach("cycles", budget.max_cycles, cycles_done)
        if budget.max_wall_seconds is not None:
            elapsed = time.perf_counter() - self.started
            if elapsed > budget.max_wall_seconds:
                return BudgetBreach("wall", budget.max_wall_seconds, elapsed)
        return None
