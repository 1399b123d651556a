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

1. the good machine is stepped serially, recording the settled values of
   every cycle (one ``settle`` per vector — identical work to any other
   engine) — packed lazily into per-gate good words, slot ``t`` = cycle
   ``t``;
2. the faulty machine's word plane starts as the good plane; the fault
   site is forced in every slot, and the fault's carried flip-flop diffs
   seed slot 0 of the affected DFF outputs; the combinational cones
   settle event-driven and levelized, exactly the PROOFS group algorithm
   with the bit axis reinterpreted;
3. sequential feedback is closed by fix-up iteration: each DFF's output
   word must equal its input word shifted up one slot (slot ``t+1``
   latches the slot-``t`` D value).  Each pass makes one more leading
   slot final, so the iteration reaches the exact fixpoint in at most
   ``W`` passes — usually 2-3, since state divergence rarely spans the
   window;
4. each primary output yields one *mismatch* word (slots whose good
   value is binary and differs binarily) and one *unknown* word (binary
   good, unknown faulty).  The earliest mismatch slot is the
   hard-detection cycle; the earliest unknown slot is the
   potential-detection cycle, recorded in both modes only while the
   fault has no hard detection in an earlier window and only if it does
   not come after this window's hard slot (the one rule of DESIGN.md
   §8).  Outgoing flip-flop diffs come from the last slot's D words.

Because both axes implement the same per-cycle semantics, axis choice
never changes detections — the property suite and the cross-validation
tests (vs ``csim-MV`` and the serial oracle) pin bit-identity.

**Record mode** (``record_responses=True``, dictionary building) runs in
the same windows but drops nothing: every window-active fault is
simulated, keeps its flip-flop diffs, and appends one ``(cycle,
po_position)`` failure per mismatch bit, in the PROOFS loop's (cycle,
output) order; its potential detection follows detect mode's rule, so a
dictionary build reports exactly the potentials a dropping run reports.
:meth:`VectorFaultSimulator.advance` runs one window clipped to the limit
:func:`repro.drive.drive` hands it — at every checkpoint and at a cycle
budget — so snapshots fall on window boundaries and a truncated run
stops at the exact cycle.

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
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.drive import drive
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.baselines.proofs import ProofsSimulator
from repro.logic.tables import GateType
from repro.logic.values import ONE, X
from repro.obs.tracer import Tracer
from repro.result import FaultSimResult
from repro.vector.packing import broadcast_word, evaluate_gate_word, set_slot
from repro.vector.scheduler import AxisScheduler

#: Engine name in the registry (``csim-V`` was already taken by the
#: split-lists concurrent variant since the seed, so the vectorized
#: kernel registers as ``vsim``).
ENGINE_NAME = "vsim"

#: What one fault's pass through a window yields, on both window paths:
#: ``(mismatch words, unknown words, outgoing flip-flop diffs)`` with one
#: word per primary output, bit ``t`` standing for slot ``t``.
WindowOutcome = Tuple[List[int], List[int], Dict[int, int]]


def _first_slot(words: List[int]) -> Optional[int]:
    """The earliest slot set in any of *words*, or None."""
    combined = functools.reduce(operator.or_, words, 0)
    return (combined & -combined).bit_length() - 1 if combined else None


def _failing_slots(mismatch: List[int]) -> List[Tuple[int, int]]:
    """Every ``(slot, po_position)`` set in *mismatch*, in slot order."""
    failing: List[Tuple[int, int]] = []
    for position, word in enumerate(mismatch):
        while word:
            low = word & -word
            failing.append((low.bit_length() - 1, position))
            word ^= low
    failing.sort()
    return failing


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
            circuit,
            faults,
            word_size=word_width,
            tracer=tracer,
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
        if self.record_responses:
            live = len(self.faults)
        else:
            live = sum(1 for fault in self.faults if fault not in self.detected)
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
        circuit = self.circuit
        width = len(window)
        mask = (1 << width) - 1
        trace = self.tracer
        base_cycle = self.cycle
        live_entry = sum(len(diffs) for diffs in self.ff_diffs.values())

        # Good machine: one serial settle per cycle (identical good work
        # to every other engine), values snapshotted per cycle.  The last
        # cycle's tracer window stays open so the packed fault work below
        # is attributed inside a cycle.
        snaps: List[List[int]] = []
        for offset, vector in enumerate(window):
            self.cycle += 1
            self.counters.cycles += 1
            if trace is not None:
                trace.cycle_start(self.cycle)
                t0 = time.perf_counter()
            self.good.settle(vector)
            self.counters.good_evaluations += circuit.num_combinational
            snaps.append(list(self.good.values))
            if trace is not None:
                trace.good_evals(None, circuit.num_combinational)
                trace.phase_time("good", time.perf_counter() - t0)
            if offset < width - 1:
                self.good.clock()
                if trace is not None:
                    trace.cycle_end(
                        self.cycle, live=live_entry, visible=live_entry, invisible=0
                    )

        # Lazily packed good words: gate -> (ones, xs), slot t = cycle t.
        good_words: Dict[int, Tuple[int, int]] = {}

        def good_word(index: int) -> Tuple[int, int]:
            word = good_words.get(index)
            if word is None:
                ones = 0
                xs = 0
                for slot in range(width):
                    value = snaps[slot][index]
                    if value == ONE:
                        ones |= 1 << slot
                    elif value == X:
                        xs |= 1 << slot
                word = (ones, xs)
                good_words[index] = word
            return word

        if trace is not None:
            t1 = time.perf_counter()
        record = self.record_responses
        active = [
            fault
            for fault in self.faults
            if (record or fault not in self.detected)
            and self._window_active(fault, mask, good_word)
        ]

        if self.use_numpy and active:
            from repro.vector import plane

            outcomes = plane.simulate_window(self, active, snaps, mask, good_word)
        else:
            outcomes = [
                self._propagate_fault_window(fault, width, mask, snaps, good_word)
                for fault in active
            ]

        for fault, (mismatch, unknown, new_diffs) in zip(active, outcomes):
            hard_slot = _first_slot(mismatch)
            pot_slot = _first_slot(unknown)
            # No potential after a hard detection in an earlier cycle.
            if (
                pot_slot is not None
                and fault not in self.potentially_detected
                and fault not in self.detected
                and (hard_slot is None or pot_slot <= hard_slot)
            ):
                cycle = base_cycle + pot_slot + 1
                self.potentially_detected[fault] = cycle
                if trace is not None:
                    trace.detect(self._fault_ids[fault], cycle, potential=True)
            if hard_slot is not None:
                if record:
                    self._responses.setdefault(fault, []).extend(
                        (base_cycle + slot + 1, position)
                        for slot, position in _failing_slots(mismatch)
                    )
                if fault not in self.detected:
                    cycle = base_cycle + hard_slot + 1
                    self.detected[fault] = cycle
                    if trace is not None:
                        trace.detect(self._fault_ids[fault], cycle)
                        if not record:
                            trace.drop(self._fault_ids[fault], cycle)
            # Detect mode drops a detected fault; record mode keeps it.
            self.ff_diffs[fault] = new_diffs if record or hard_slot is None else {}

        live = sum(len(diffs) for diffs in self.ff_diffs.values())
        self.memory.note_elements(live)
        if trace is not None:
            trace.phase_time("groups", time.perf_counter() - t1)
        self.good.clock()
        if trace is not None:
            trace.cycle_end(self.cycle, live=live, visible=live, invisible=0)

    def _window_active(self, fault: StuckAtFault, mask: int, good_word: Any) -> bool:
        """Could this fault differ from the good machine inside the window?

        The windowed analogue of PROOFS' per-cycle activity filter: yes if
        it carries faulty flip-flop state, or the stuck line's good value
        opposes the stuck value (X included) in *any* slot.
        """
        if self.ff_diffs[fault]:
            return True
        if fault.pin == OUTPUT_PIN:
            site = fault.gate
        else:
            site = self.circuit.gates[fault.gate].fanin[fault.pin]
        ones, xs = good_word(site)
        if fault.value == ONE:
            return bool(mask & ~ones)
        return bool(ones | xs)

    def _propagate_fault_window(
        self,
        fault: StuckAtFault,
        width: int,
        mask: int,
        snaps: List[List[int]],
        good_word: Any,
    ) -> WindowOutcome:
        """Propagate one fault through a whole window of cycles at once.

        Returns ``(mismatch, unknown, outgoing_ff_diffs)``: one mismatch
        word and one unknown word per primary output (bit ``t`` = slot
        ``t`` of the window) and the flip-flop diffs after the window.
        """
        circuit = self.circuit
        gates = circuit.gates
        trace = self.tracer
        counters = self.counters

        words: Dict[int, Tuple[int, int]] = {}

        def get_word(index: int) -> Tuple[int, int]:
            word = words.get(index)
            if word is None:
                return good_word(index)
            return word

        def set_word(index: int, one_bits: int, x_bits: int) -> bool:
            old = get_word(index)
            if old == (one_bits, x_bits):
                return False
            words[index] = (one_bits, x_bits)
            return True

        queue: List[List[int]] = [[] for _ in range(circuit.num_levels + 1)]
        in_queue: Set[int] = set()
        dirty_ffs: Set[int] = set()

        def schedule(index: int) -> None:
            if index not in in_queue:
                in_queue.add(index)
                queue[gates[index].level].append(index)
                counters.gates_scheduled += 1
                if trace is not None:
                    trace.scheduled(index, gates[index].level)

        def emit(index: int) -> None:
            counters.events += 1
            if trace is not None:
                trace.event(index)
            for sink in gates[index].fanout:
                if gates[sink].gtype is GateType.DFF:
                    dirty_ffs.add(sink)
                else:
                    schedule(sink)

        # Carried flip-flop diffs seed slot 0 (the window's first cycle).
        for ff_index, value in self.ff_diffs[fault].items():
            one_bits, x_bits = get_word(ff_index)
            one_bits, x_bits = set_slot(one_bits, x_bits, 0, value)
            if set_word(ff_index, one_bits, x_bits):
                emit(ff_index)

        # Inject the stuck line, forced in every slot.
        forced_word = broadcast_word(fault.value, mask)
        out_forced = -1
        in_forced: Optional[Tuple[int, int]] = None
        if fault.pin == OUTPUT_PIN:
            out_forced = fault.gate
            if set_word(fault.gate, *forced_word):
                emit(fault.gate)
        else:
            in_forced = (fault.gate, fault.pin)
            if gates[fault.gate].gtype is GateType.DFF:
                dirty_ffs.add(fault.gate)
            else:
                schedule(fault.gate)

        def operand(gate_index: int, pin: int, source: int) -> Tuple[int, int]:
            if in_forced is not None and in_forced == (gate_index, pin):
                return forced_word
            return get_word(source)

        def settle() -> None:
            for level in range(1, len(queue)):
                bucket = queue[level]
                for gate_index in bucket:
                    in_queue.discard(gate_index)
                    counters.fault_evaluations += 1
                    if trace is not None:
                        trace.fault_evals(gate_index)
                    if gate_index == out_forced:
                        one_out, x_out = forced_word
                    else:
                        gate = gates[gate_index]
                        operands = [
                            operand(gate_index, pin, source)
                            for pin, source in enumerate(gate.fanin)
                        ]
                        one_out, x_out = evaluate_gate_word(
                            gate.gtype, operands, mask
                        )
                    if set_word(gate_index, one_out, x_out):
                        emit(gate_index)
                bucket.clear()

        def latched_word(ff_index: int) -> Tuple[int, int]:
            """The D word a DFF latches (input forcing applied)."""
            if in_forced is not None and in_forced == (ff_index, 0):
                return forced_word
            return get_word(gates[ff_index].fanin[0])

        # Close the sequential feedback: slot t+1 of each touched DFF's
        # output must hold slot t of its input.  Each pass finalizes at
        # least one more leading slot, so the fixpoint lands within
        # ``width`` passes; the settle in between replays only the cones
        # the corrections touched.
        settle()
        high_mask = mask & ~1
        for _ in range(width + 1):
            changed = False
            for ff_index in sorted(dirty_ffs):
                if ff_index == out_forced:
                    continue  # output-stuck DFF: Q is forced in every slot
                d_ones, d_xs = latched_word(ff_index)
                q_ones, q_xs = get_word(ff_index)
                req_ones = ((d_ones << 1) & high_mask) | (q_ones & 1)
                req_xs = ((d_xs << 1) & high_mask) | (q_xs & 1)
                if (req_ones, req_xs) != (q_ones, q_xs):
                    set_word(ff_index, req_ones, req_xs)
                    emit(ff_index)
                    changed = True
            if not changed:
                break
            settle()
        else:  # pragma: no cover - the pass bound proof above precludes this
            raise RuntimeError(
                f"pattern window failed to converge within {width + 1} passes"
            )

        # One mismatch and one unknown word per primary output.
        mismatch: List[int] = []
        unknown: List[int] = []
        for po_index in circuit.outputs:
            word = words.get(po_index)
            if word is None:  # untouched: identical to the good machine
                mismatch.append(0)
                unknown.append(0)
                continue
            f_ones, f_xs = word
            g_ones, g_xs = good_word(po_index)
            binary_good = mask & ~g_xs
            unknown.append(f_xs & binary_good)
            mismatch.append((f_ones ^ g_ones) & binary_good & ~f_xs)

        # Outgoing flip-flop diffs from the last slot's D words.
        new_diffs: Dict[int, int] = {}
        last = width - 1
        last_bit = 1 << last
        for ff_index in dirty_ffs:
            d_ones, d_xs = latched_word(ff_index)
            if d_ones & last_bit:
                value = ONE
            elif d_xs & last_bit:
                value = X
            else:
                value = 0
            if value != snaps[last][gates[ff_index].fanin[0]]:
                new_diffs[ff_index] = value
        return (mismatch, unknown, new_diffs)
