"""The axis-picking scheduler: fault-axis vs pattern-axis per window.

The vector kernel advances in windows of at most ``word_width`` vectors
and asks the scheduler, at every window boundary, which axis to pack:

* **fault axis** — one bit per live fault machine, one cycle at a time
  (the PROOFS layout).  Wins while many faults are live: every word is
  full, and the event-driven per-cycle settle touches only active cones.
* **pattern axis** — one bit per clock cycle, one live fault at a time.
  Wins late in a campaign, when fault dropping has left fewer live
  faults than a word holds: the fault axis would run near-empty words
  for every remaining cycle, while the pattern axis amortizes a whole
  window of cycles into one word per fault.

Window boundaries are exactly where dropped faults become visible (the
kernel re-counts live faults there), so re-planning per window is the
"re-plan at drop-heavy checkpoints" policy: a burst of detections flips
the axis for the rest of the run.  The decision is a pure function of
(live fault count, remaining depth), which is what makes axis choice
partition- and resume-invariant — the property suite asserts detection
outcomes never depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: Valid ``axis_mode`` values: the two fixed axes plus the scheduler.
AXIS_MODES: Tuple[str, ...] = ("auto", "fault", "pattern")

#: Minimum remaining depth for the pattern axis to be worth a window.
MIN_PATTERN_DEPTH = 4


@dataclass(frozen=True)
class AxisDecision:
    """One window's axis choice and the inputs that produced it."""

    cycle: int  #: first cycle (1-based) of the window this decision covers
    axis: str  #: "fault" or "pattern"
    live: int  #: undetected faults at the decision point
    depth: int  #: vectors remaining (window is min(depth, word_width))
    reason: str


class AxisScheduler:
    """Chooses the packing axis per window from live faults and depth.

    The cost model depends on how pattern windows evaluate:

    * **scalar** (``dense=False``): a fault-axis window of ``W`` cycles
      costs about ``W * ceil(live / word_width)`` word-evals per touched
      gate, a pattern-axis window about ``live`` (each live fault
      propagates once through a word of ``W`` cycles, plus a small
      fix-up factor for flip-flop feedback).  The crossover is therefore
      at roughly ``live == word_width / 2``, with the *pattern* axis
      taking the low-live side.
    * **dense** (``dense=True``, the numpy plane): a pattern window
      costs a near-constant number of dense rank sweeps regardless of
      how many faults are live, while the event-driven fault axis still
      scales with the live count — so the sides *flip*: the plane takes
      the many-live phase and the fault axis takes the low-live tail,
      where dense sweeps would mostly recompute good values.

    The threshold is ``word_width // 2`` (at least 1) in both cases, and a
    window shallower than :data:`MIN_PATTERN_DEPTH` always packs faults.
    """

    def __init__(self, word_width: int, mode: str = "auto", dense: bool = False) -> None:
        if mode not in AXIS_MODES:
            raise ValueError(f"unknown axis mode {mode!r}; choose from {AXIS_MODES}")
        if word_width < 1:
            raise ValueError(f"word width must be >= 1, got {word_width}")
        self.word_width = word_width
        self.mode = mode
        self.crossover = max(1, word_width // 2)
        self.dense = dense

    def choose(self, cycle: int, live: int, depth: int) -> AxisDecision:
        """The axis for the window starting at *cycle* (1-based)."""
        if self.mode != "auto":
            return AxisDecision(cycle, self.mode, live, depth, f"fixed {self.mode} axis")
        if live == 0:
            return AxisDecision(cycle, "fault", live, depth, "no live faults")
        if depth < MIN_PATTERN_DEPTH:
            return AxisDecision(
                cycle, "fault", live, depth,
                f"depth {depth} < min pattern depth {MIN_PATTERN_DEPTH}",
            )
        if self.dense:
            if live >= self.crossover:
                return AxisDecision(
                    cycle, "pattern", live, depth,
                    f"dense: live {live} >= crossover {self.crossover}",
                )
            return AxisDecision(
                cycle, "fault", live, depth,
                f"dense: live {live} < crossover {self.crossover}",
            )
        if live < self.crossover:
            return AxisDecision(
                cycle, "pattern", live, depth,
                f"live {live} < crossover {self.crossover}",
            )
        return AxisDecision(
            cycle, "fault", live, depth, f"live {live} >= crossover {self.crossover}"
        )


def predict_axes(
    live_counts: List[int],
    depth: int,
    word_width: int,
    mode: str = "auto",
    dense: bool = False,
) -> List[str]:
    """The axis each shard of a campaign would start on.

    A planning helper for the two-dimensional composition: given the
    per-shard live-fault counts of a partition
    (:func:`repro.parallel.runner.plan_shards` sizes) and the vector
    depth, report which axis each shard's kernel would pick for its first
    window.  Under the scalar cost model small shards start on the
    pattern axis while big shards start on the fault axis, and the dense
    model flips the two — the benchmark's axis-ablation uses this to
    report the mix.
    """
    scheduler = AxisScheduler(word_width, mode=mode, dense=dense)
    return [scheduler.choose(1, live, depth).axis for live in live_counts]
