"""A reimplementation of PROOFS (Niermann, Cheng & Patel, DAC 1990).

PROOFS is the simulator the paper measures itself against in Tables 3-5:
bit-parallel *single fault propagation* for synchronous sequential
circuits.  Per vector:

1. the good machine is simulated once;
2. undetected faults that could possibly differ from the good machine this
   cycle — those with faulty flip-flop state, or whose stuck line's good
   value opposes the stuck value — are grouped, one word-bit per fault;
3. each group is simulated event-driven from the good values, with the
   fault effects injected at their sites and the groups' faulty flip-flop
   states applied, all machines in a group advancing in parallel through
   bitwise logic on two masks per signal (``ones`` and ``xs`` — three
   -valued logic needs two bits per machine) — the word core of
   :mod:`repro.vector.core`, which vsim's scalar windows share;
4. detections are read off the primary-output words, and each fault's
   faulty-flip-flop set (its only per-fault state) is updated from the
   settled D words.

Detected faults are dropped immediately (never regrouped).  The word width
is configurable; PROOFS used the host's 32-bit words, Python integers allow
any width.  The good machine settles by packed-table lookup, as csim's
does, and per-fault state is indexed by fault id (the position in the
sorted fault list); only results and checkpoints are keyed by fault.
This implementation exists so the paper's comparison is algorithm-vs-
algorithm on one substrate rather than C binary vs Python (DESIGN.md §3).
"""

from __future__ import annotations

import copy
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.drive import drive
from repro.faults.model import Fault, OUTPUT_PIN, StuckAtFault
from repro.faults.universe import stuck_at_universe
from repro.logic.values import ONE, X, ZERO
from repro.obs.tracer import Tracer, gate_tracer
from repro.result import Failure, FaultSimResult, MemoryStats, WorkCounters
from repro.sim.logicsim import LogicSimulator
from repro.vector.core import WordMachine, WordPlan, broadcast, each_slot


class ProofsSimulator:
    """Word-parallel single-fault propagation fault simulator.

    ``record_responses`` switches the simulator into dictionary-building
    mode: detected faults are *not* dropped (they keep grouping and their
    flip-flop diffs keep evolving), and every binary output mismatch is
    recorded per fault as a ``(cycle, po_position)`` failure.  ``detected``
    still reports first-detection cycles, identical to a dropping run.
    """

    #: Engine name reported on results (subclasses override).
    engine_name = "PROOFS"

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Iterable[StuckAtFault]] = None,
        word_size: int = 64,
        tracer: Optional[Tracer] = None,
        record_responses: bool = False,
    ) -> None:
        self.circuit = circuit
        self.plan = WordPlan(circuit)  # refuses macro gates
        self.faults: List[StuckAtFault] = (
            sorted(faults) if faults is not None else stuck_at_universe(circuit)
        )
        self.word_size = word_size
        self.tracer = tracer
        self.record_responses = record_responses
        #: Fault ids: positions in ``faults`` (also the trace records' ids).
        self._fault_ids = {fault: fid for fid, fault in enumerate(self.faults)}
        #: (fid, line whose good value the activity filter reads, stuck value).
        self._sites = [
            (fid, f.gate if f.pin == OUTPUT_PIN else circuit.gates[f.gate].fanin[f.pin], f.value)
            for fid, f in enumerate(self.faults)
        ]
        self.reset()

    def reset(self) -> None:
        self.good = LogicSimulator(self.circuit)
        self.cycle = 0
        self.detected: Dict[Fault, int] = {}
        self.potentially_detected: Dict[Fault, int] = {}
        #: fid -> {ff_index: latched value differing from good}
        self.ff_diffs: List[Dict[int, int]] = [{} for _ in self.faults]
        #: fid -> recorded failures (record_responses mode only).
        self._responses: Dict[int, List[Failure]] = {}
        self._index_results()
        self.counters = WorkCounters()
        self.memory = MemoryStats(num_descriptors=len(self.faults))

    def _index_results(self) -> None:
        """Rebuild the fid-indexed views of ``detected`` (first-detection
        cycle, 0 when undetected) and ``potentially_detected``."""
        self._detected_at = [0] * len(self.faults)
        for fault, cycle in self.detected.items():
            self._detected_at[self._fault_ids[fault]] = cycle
        self._potential = bytearray(len(self.faults))
        for fault in self.potentially_detected:
            self._potential[self._fault_ids[fault]] = 1
        self._live = self._sites

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the full simulation state (see the concurrent engine's
        :meth:`~repro.concurrent.engine.ConcurrentFaultSimulator.snapshot`).

        PROOFS keeps almost no per-fault state — only the faulty flip-flop
        diffs — so its checkpoint is tiny.  Like the results, it is keyed
        by fault.
        """
        faults = self.faults
        return {
            "values": list(self.good.values),
            "good_cycle": self.good.cycle,
            "cycle": self.cycle,
            "detected": dict(self.detected),
            "potential": dict(self.potentially_detected),
            "ff_diffs": {fault: dict(diffs) for fault, diffs in zip(faults, self.ff_diffs)},
            "counters": copy.copy(self.counters),
            "memory": copy.copy(self.memory),
            "responses": {faults[fid]: list(f) for fid, f in self._responses.items()},
        }

    def restore(self, state: dict) -> None:
        """Roll the simulator back to a :meth:`snapshot`."""
        fault_ids = self._fault_ids
        self.good.values[:] = state["values"]
        self.good.cycle = state["good_cycle"]
        self.cycle = state["cycle"]
        self.detected = dict(state["detected"])
        self.potentially_detected = dict(state["potential"])
        self.ff_diffs = [{} for _ in self.faults]
        for fault, diffs in state["ff_diffs"].items():
            self.ff_diffs[fault_ids[fault]] = dict(diffs)
        self._responses = {
            fault_ids[fault]: [tuple(f) for f in failures]
            for fault, failures in state.get("responses", {}).items()
        }
        self._index_results()
        self.counters = copy.copy(state["counters"])
        self.memory = copy.copy(state["memory"])

    # ------------------------------------------------------------------
    # per-cycle flow
    # ------------------------------------------------------------------

    def step(self, vector: Sequence[int]) -> List[Fault]:
        """Simulate one vector; returns faults first detected this cycle."""
        self._settle_good(vector)
        started = time.perf_counter()
        # Every group starts from the good values broadcast over a full
        # word; the slots past a short last group stay good machines.
        width = self.word_size
        mask = (1 << width) - 1
        ones, xs = broadcast(self.good.values, mask)
        active = self._active(ones, xs, mask)
        newly: List[Fault] = []
        for group_start in range(0, len(active), width):
            group = active[group_start : group_start + width]
            newly.extend(self._simulate_group(group, ones, xs, mask))
        self._close_cycle(started)
        return newly

    def _settle_good(self, vector: Sequence[int]) -> None:
        """Open the next cycle and settle the good machine on *vector*."""
        self.cycle += 1
        self.counters.cycles += 1
        trace = self.tracer
        if trace is not None:
            trace.cycle_start(self.cycle)
            started = time.perf_counter()
        self.plan.settle_good(self.good.values, vector)
        self.counters.good_evaluations += self.circuit.num_combinational
        if trace is not None:
            trace.good_evals(None, self.circuit.num_combinational)
            trace.phase_time("good", time.perf_counter() - started)

    def _close_cycle(self, started: float) -> None:
        """Note the carried diffs, clock the good machine, close the cycle
        (the fault work began at *started*)."""
        live = sum(map(len, self.ff_diffs))
        self.memory.note_elements(live)
        trace = self.tracer
        if trace is not None:
            trace.phase_time("groups", time.perf_counter() - started)
        self.good.clock()
        if trace is not None:
            trace.cycle_end(self.cycle, live=live, visible=live, invisible=0)

    def advance(self, vectors: Iterator[Sequence[int]], limit: int) -> int:
        """Apply the next vector (see :mod:`repro.drive`)."""
        self.step(next(vectors))
        return 1

    def run(self, vectors: Iterable[Sequence[int]], budget=None) -> FaultSimResult:
        """Simulate a whole sequence, budgeted (see :func:`repro.drive.drive`)."""
        return drive(self, vectors, budget)

    def responses_by_fault(self) -> Dict[Fault, Tuple[Failure, ...]]:
        """The recorded responses keyed by fault, in sorted-fault order.

        Every simulated fault gets a key — an empty tuple means the fault
        never produced a binary output mismatch over the applied vectors.
        """
        responses = self._responses
        return {
            fault: tuple(responses.get(fid, ())) for fid, fault in enumerate(self.faults)
        }

    # ------------------------------------------------------------------
    # activity filter and detection bookkeeping (shared with vsim)
    # ------------------------------------------------------------------

    def _active(self, ones: List[int], xs: List[int], mask: int) -> List[int]:
        """The fids whose machines could differ from the good machine in
        some slot of the good words *ones* / *xs* (a cycle broadcast over a
        word, or a vsim window).

        Yes if the fault carries faulty flip-flop state, or the stuck line's
        good value is not the stuck value in some slot (an X counts: the
        machines carry different states even if no binary detection can
        result).  Unless responses are recorded, detected faults leave the
        sites walked (``_live``) once, not once per cycle.
        """
        if not self.record_responses and len(self._live) + len(self.detected) > len(self.faults):
            self._live = [site for site in self._live if not self._detected_at[site[0]]]
        diffs = self.ff_diffs
        return [
            fid
            for fid, line, value in self._live
            if diffs[fid] or (mask ^ ones[line] if value == ONE else ones[line] | xs[line])
        ]

    def _note_potential(self, fid: int, cycle: int) -> None:
        self._potential[fid] = 1
        self.potentially_detected[self.faults[fid]] = cycle
        if self.tracer is not None:
            self.tracer.detect(fid, cycle, potential=True)

    def _note_detection(self, fid: int, cycle: int) -> Fault:
        fault = self.faults[fid]
        self._detected_at[fid] = cycle
        self.detected[fault] = cycle
        if self.tracer is not None:
            # Detected faults are dropped (never regrouped), except in
            # record_responses mode, where nothing is ever dropped.
            self.tracer.detect(fid, cycle)
            if not self.record_responses:
                self.tracer.drop(fid, cycle)
        return fault

    # ------------------------------------------------------------------
    # bit-parallel group simulation
    # ------------------------------------------------------------------

    def _simulate_group(
        self, group: List[int], ones: List[int], xs: List[int], mask: int
    ) -> List[Fault]:
        """Simulate the fids of *group*, one slot each, on the word core,
        from the good words *ones* / *xs*."""
        machine = WordMachine(
            self.plan, list(ones), list(xs), mask, self.counters, gate_tracer(self.tracer)
        )
        for slot, fid in enumerate(group):
            bit = 1 << slot
            # Apply this machine's faulty flip-flop state, then inject.
            for ff_index, value in self.ff_diffs[fid].items():
                machine.set_slots(ff_index, bit, value)
            fault = self.faults[fid]
            machine.force(fault.gate, fault.pin, bit, fault.value)
        machine.settle()

        # Detection at the primary outputs.  Hard detections (known,
        # differing values) and potential detections (known good, unknown
        # faulty) are both judged on the full output vector of the cycle.
        newly: List[Fault] = []
        cycle = self.cycle
        record = self.record_responses
        detected_at = self._detected_at
        for po_position, po_index in enumerate(self.circuit.outputs):
            if xs[po_index]:  # an X good value detects nothing
                continue
            unknown = machine.xs[po_index]
            for slot in each_slot(unknown):
                fid = group[slot]
                # No potential after a hard detection in an earlier cycle.
                if not self._potential[fid] and detected_at[fid] in (0, cycle):
                    self._note_potential(fid, cycle)
            for slot in each_slot((machine.ones[po_index] ^ ones[po_index]) & ~unknown):
                fid = group[slot]
                if record:
                    self._responses.setdefault(fid, []).append((cycle, po_position))
                if not detected_at[fid]:
                    newly.append(self._note_detection(fid, cycle))

        # Next-state faulty flip-flop diffs from the settled D words.  Only
        # flip-flops whose D cone was touched (or whose D pin is a fault
        # site) can differ from the good next state; everything else keeps
        # the broadcast good value and contributes no diff.
        new_diffs: List[Dict[int, int]] = [{} for _ in group]
        for ff_index in machine.dirty_ffs:
            one, x = machine.operand(ff_index, 0)
            source = self.plan.fanins[ff_index][0]
            for slot in each_slot((one ^ ones[source]) | (x ^ xs[source])):
                bit = 1 << slot
                new_diffs[slot][ff_index] = ONE if one & bit else X if x & bit else ZERO
        for fid, diffs in zip(group, new_diffs):
            self.ff_diffs[fid] = {} if detected_at[fid] and not record else diffs
        return newly
