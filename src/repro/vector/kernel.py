"""The pattern-parallel vector kernel: engine ``vsim``.

``VectorFaultSimulator`` generalizes the PROOFS word packing
(:mod:`repro.baselines.proofs`, one bit per *fault machine*) to a
two-dimensional kernel that can also pack one bit per *pattern*: a window
of up to ``word_width`` consecutive clock cycles evaluates as single
word operations per touched gate.  An :class:`~repro.vector.scheduler.
AxisScheduler` picks the packing axis per window from the live-fault
count and remaining vector depth, re-planning at every window boundary
(where fault drops surface), so a run starts fault-axis while the word is
full of live faults and flips to pattern-axis for the long low-activity
tail.

**Pattern-axis windows are exact**, not an approximation of per-cycle
simulation.  For one fault over a window of ``W`` vectors:

1. the good machine settles once per vector (identical work to any other
   engine) and every gate's settled values pack into one good word, slot
   ``t`` = cycle ``t``;
2. the faulty machine starts as the good words, the fault site is forced
   in every slot and the carried flip-flop diffs seed slot 0; the cones
   settle on the word core of :mod:`repro.vector.core`, which PROOFS
   groups run with the bit axis meaning faults;
3. sequential feedback is closed by fix-up iteration: each DFF's output
   word must equal its input word shifted up one slot (slot ``t+1``
   latches the slot-``t`` D value).  Each pass makes one more leading
   slot final, so the iteration reaches the exact fixpoint in at most
   ``W`` passes — usually 2-3, since state divergence rarely spans the
   window;
4. each primary output yields one *mismatch* word (binary good, binary
   and different faulty) and one *unknown* word (binary good, unknown
   faulty): the earliest slots are the hard- and potential-detection
   cycles.  A potential counts only while the fault has no hard detection
   in an earlier window and not after this window's hard slot (the one
   rule of DESIGN.md §8).  Outgoing flip-flop diffs come from the last
   slot's D words.

Because both axes implement the same per-cycle semantics, axis choice
never changes detections — the property suite and the cross-validation
tests (vs ``csim-MV`` and the serial oracle) pin bit-identity.

**Record mode** (``record_responses=True``, dictionary building) runs in
the same windows but drops nothing: every window-active fault is
simulated, keeps its flip-flop diffs, and appends one ``(cycle,
po_position)`` failure per mismatch bit, in the PROOFS loop's (cycle,
output) order.  :meth:`VectorFaultSimulator.advance` runs one window
clipped to the limit :func:`repro.drive.drive` hands it — at every
checkpoint and at a cycle budget — so snapshots fall on window
boundaries and a truncated run stops at the exact cycle.

An optional numpy path (:mod:`repro.vector.plane`) evaluates pattern
windows for *all* active faults at once on a dual-rail (faults x
patterns) plane of ``uint64`` words, a few vectorized operations per
level per sweep, retiring each fault's row once its flip-flop words
settle.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.drive import drive
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.baselines.proofs import ProofsSimulator
from repro.logic.values import ONE, X, ZERO
from repro.obs.tracer import Tracer
from repro.result import FaultSimResult
from repro.vector.core import WordMachine, pack_slots, each_slot
from repro.vector.scheduler import AxisScheduler

#: Engine name in the registry (``csim-V`` was already taken by the
#: split-lists concurrent variant since the seed, so the vectorized
#: kernel registers as ``vsim``).
ENGINE_NAME = "vsim"

#: What one fault's pass through a window yields, on both window paths:
#: ``(mismatch words, unknown words, outgoing flip-flop diffs)`` with one
#: word per primary output, bit ``t`` standing for slot ``t``.
WindowOutcome = Tuple[List[int], List[int], Dict[int, int]]

#: A window's good machine: the ``ones`` words and the ``xs`` words, one
#: per gate, bit ``t`` standing for slot ``t``.
GoodWords = Tuple[List[int], List[int]]


def _first_slot(words: List[int]) -> Optional[int]:
    """The earliest slot set in any of *words*, or None."""
    combined = functools.reduce(operator.or_, words, 0)
    return (combined & -combined).bit_length() - 1 if combined else None


def _failing_slots(mismatch: List[int]) -> List[Tuple[int, int]]:
    """Every ``(slot, po_position)`` set in *mismatch*, in slot order."""
    return sorted(
        (slot, position) for position, word in enumerate(mismatch) for slot in each_slot(word)
    )


class VectorFaultSimulator(ProofsSimulator):
    """Two-dimensional word-packed fault simulator (engine ``vsim``).

    ``axis_mode`` is ``"auto"`` (scheduler), ``"fault"`` or ``"pattern"``
    (fixed, for ablation).  ``use_numpy`` switches pattern windows to the
    levelized (faults x patterns) plane of :mod:`repro.vector.plane`;
    the default (``None``) enables it whenever numpy is available and
    ``word_width <= 64``, so the engine is fast out of the box wherever
    the harness builds it.  Detections are identical either way, only
    the work profile differs.
    """

    engine_name = ENGINE_NAME

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Iterable[StuckAtFault]] = None,
        word_width: int = 64,
        axis_mode: str = "auto",
        crossover: Optional[int] = None,
        use_numpy: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
        record_responses: bool = False,
    ) -> None:
        if word_width < 1:
            raise ValueError(f"word width must be >= 1, got {word_width}")
        from repro.vector import plane

        if use_numpy is None:
            use_numpy = plane.available() and word_width <= plane.MAX_PLANE_WIDTH
        elif use_numpy:
            if not plane.available():
                raise ValueError("use_numpy requested but numpy is not installed")
            if word_width > plane.MAX_PLANE_WIDTH:
                raise ValueError(
                    f"the numpy plane packs uint64 words: word width "
                    f"{word_width} > {plane.MAX_PLANE_WIDTH}"
                )
        self.word_width = word_width
        self.axis_mode = axis_mode
        self.scheduler = AxisScheduler(
            word_width, mode=axis_mode, crossover=crossover, dense=use_numpy
        )
        self.use_numpy = use_numpy
        super().__init__(
            circuit, faults, word_size=word_width, tracer=tracer,
            record_responses=record_responses,
        )

    def reset(self) -> None:
        super().reset()
        #: Window counts per axis (mirrored onto the result).
        self.axis_windows: Dict[str, int] = {}

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["axis_windows"] = dict(self.axis_windows)
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self.axis_windows = dict(state.get("axis_windows", {}))

    # ------------------------------------------------------------------
    # windowed advance
    # ------------------------------------------------------------------

    def advance(self, vectors: Iterator[Sequence[int]], limit: int) -> int:
        """Run one scheduled window of at most *limit* vectors.

        The scheduler sees every fault as live in record mode, where
        nothing is dropped.
        """
        live = len(self.faults) - (0 if self.record_responses else len(self.detected))
        decision = self.scheduler.choose(self.cycle + 1, live, limit)
        self.axis_windows[decision.axis] = self.axis_windows.get(decision.axis, 0) + 1
        window = list(itertools.islice(vectors, min(limit, self.word_width)))
        if decision.axis == "pattern":
            self._pattern_window(window)
        else:
            for vector in window:
                self.step(vector)
        return len(window)

    def run(self, vectors: Iterable[Sequence[int]], budget: Any = None) -> FaultSimResult:
        """Simulate a whole sequence, budgeted (see :func:`repro.drive.drive`)."""
        return drive(self, vectors, budget)

    # ------------------------------------------------------------------
    # pattern-axis window
    # ------------------------------------------------------------------

    def _pattern_window(self, window: List[Sequence[int]]) -> None:
        """Simulate a window of vectors with one bit slot per cycle."""
        width = len(window)
        mask = (1 << width) - 1
        trace = self.tracer
        base_cycle = self.cycle
        live_entry = sum(map(len, self.ff_diffs))

        # Good machine: one settle per cycle (identical good work to every
        # other engine), values snapshotted per cycle.  The last cycle's
        # tracer window stays open so the packed fault work below is
        # attributed inside a cycle.
        snaps: List[List[int]] = []
        for offset, vector in enumerate(window):
            self._settle_good(vector)
            snaps.append(list(self.good.values))
            if offset < width - 1:
                self.good.clock()
                if trace is not None:
                    trace.cycle_end(
                        self.cycle, live=live_entry, visible=live_entry, invisible=0
                    )

        # Every gate's good word, slot t = cycle t.
        good_words = pack_slots(snaps)

        started = time.perf_counter()
        record = self.record_responses
        active = self._active(*good_words, mask)
        if self.use_numpy and active:
            from repro.vector import plane

            outcomes = plane.simulate_window(self, active, snaps, mask, good_words)
        else:
            outcomes = [
                self._propagate_fault_window(fid, width, mask, snaps, good_words)
                for fid in active
            ]

        for fid, (mismatch, unknown, new_diffs) in zip(active, outcomes):
            hard_slot = _first_slot(mismatch)
            pot_slot = _first_slot(unknown)
            # No potential after a hard detection in an earlier cycle.
            if (
                pot_slot is not None
                and not self._potential[fid]
                and not self._detected_at[fid]
                and (hard_slot is None or pot_slot <= hard_slot)
            ):
                self._note_potential(fid, base_cycle + pot_slot + 1)
            if hard_slot is not None:
                if record:
                    self._responses.setdefault(fid, []).extend(
                        (base_cycle + slot + 1, position)
                        for slot, position in _failing_slots(mismatch)
                    )
                if not self._detected_at[fid]:
                    self._note_detection(fid, base_cycle + hard_slot + 1)
            # Detect mode drops a detected fault; record mode keeps it.
            self.ff_diffs[fid] = new_diffs if record or hard_slot is None else {}
        self._close_cycle(started)

    def _propagate_fault_window(
        self, fid: int, width: int, mask: int, snaps: List[List[int]], good_words: GoodWords
    ) -> WindowOutcome:
        """Propagate one fault through a whole window of cycles at once.

        Returns ``(mismatch, unknown, outgoing_ff_diffs)``: one mismatch
        word and one unknown word per primary output (bit ``t`` = slot
        ``t`` of the window) and the flip-flop diffs after the window.
        """
        circuit = self.circuit
        good_ones, good_xs = good_words
        machine = WordMachine(
            self.plan, list(good_ones), list(good_xs), mask, self.counters, self.tracer
        )
        ones, xs = machine.ones, machine.xs
        # Carried flip-flop diffs seed slot 0 (the window's first cycle).
        for ff_index, value in self.ff_diffs[fid].items():
            machine.set_slots(ff_index, 1, value)
        # Inject the stuck line, forced in every slot.
        fault = self.faults[fid]
        machine.force(fault.gate, fault.pin, mask, fault.value)
        out_forced = fault.gate if fault.pin == OUTPUT_PIN else -1

        # Close the sequential feedback: slot t+1 of each touched DFF's
        # output must hold slot t of its input.  Each pass finalizes at
        # least one more leading slot, so the fixpoint lands within
        # ``width`` passes; the settle in between replays only the cones
        # the corrections touched.
        machine.settle()
        high_mask = mask & ~1
        for _ in range(width + 1):
            changed = False
            for ff_index in sorted(machine.dirty_ffs):
                if ff_index == out_forced:
                    continue  # output-stuck DFF: Q is forced in every slot
                d_ones, d_xs = machine.operand(ff_index, 0)
                q_ones, q_xs = ones[ff_index], xs[ff_index]
                changed |= machine.set_word(
                    ff_index,
                    ((d_ones << 1) & high_mask) | (q_ones & 1),
                    ((d_xs << 1) & high_mask) | (q_xs & 1),
                )
            if not changed:
                break
            machine.settle()
        else:  # pragma: no cover - the pass bound proof above precludes this
            raise RuntimeError(
                f"pattern window failed to converge within {width + 1} passes"
            )

        # One mismatch and one unknown word per primary output.
        mismatch: List[int] = []
        unknown: List[int] = []
        for po_index in circuit.outputs:
            binary_good = mask & ~good_xs[po_index]
            f_ones, f_xs = ones[po_index], xs[po_index]
            unknown.append(f_xs & binary_good)
            mismatch.append((f_ones ^ good_ones[po_index]) & binary_good & ~f_xs)

        # Outgoing flip-flop diffs from the last slot's D words.
        new_diffs: Dict[int, int] = {}
        last_bit = 1 << (width - 1)
        last = snaps[-1]
        for ff_index in machine.dirty_ffs:
            d_ones, d_xs = machine.operand(ff_index, 0)
            value = ONE if d_ones & last_bit else X if d_xs & last_bit else ZERO
            if value != last[circuit.gates[ff_index].fanin[0]]:
                new_diffs[ff_index] = value
        return (mismatch, unknown, new_diffs)
