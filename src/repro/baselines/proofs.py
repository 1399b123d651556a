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
   -valued logic needs two bits per machine);
4. detections are read off the primary-output words, and each fault's
   faulty-flip-flop set (its only per-fault state) is updated from the
   settled D words.

Detected faults are dropped immediately (never regrouped).  The word width
is configurable; PROOFS used the host's 32-bit words, Python integers allow
any width.

This implementation exists so the paper's comparison is algorithm-vs-
algorithm on one substrate rather than C binary vs Python (DESIGN.md §3).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.drive import drive
from repro.faults.model import Fault, OUTPUT_PIN, StuckAtFault
from repro.faults.universe import stuck_at_universe
from repro.logic.tables import GateType
from repro.logic.values import ONE, X, ZERO, is_binary
from repro.obs.tracer import Tracer
from repro.result import Failure, FaultSimResult, MemoryStats, WorkCounters
from repro.sim.logicsim import LogicSimulator
from repro.vector.packing import broadcast_word, evaluate_gate_word


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
        if any(gate.gtype is GateType.MACRO for gate in circuit.gates):
            raise ValueError("PROOFS runs on flat circuits (no macro gates)")
        self.circuit = circuit
        self.faults: List[StuckAtFault] = (
            sorted(faults) if faults is not None else stuck_at_universe(circuit)
        )
        self.word_size = word_size
        self.tracer = tracer
        self.record_responses = record_responses
        #: Stable fault ids for trace records (PROOFS has no descriptors).
        self._fault_ids: Dict[StuckAtFault, int] = {
            fault: fid for fid, fault in enumerate(self.faults)
        }
        self.reset()

    def reset(self) -> None:
        self.good = LogicSimulator(self.circuit)
        self.cycle = 0
        self.detected: Dict[Fault, int] = {}
        self.potentially_detected: Dict[Fault, int] = {}
        #: fault -> {ff_index: latched value differing from good}
        self.ff_diffs: Dict[StuckAtFault, Dict[int, int]] = {
            fault: {} for fault in self.faults
        }
        #: fault -> recorded failures (record_responses mode only).
        self._responses: Dict[StuckAtFault, List[Failure]] = {}
        self.counters = WorkCounters()
        self.memory = MemoryStats(num_descriptors=len(self.faults))

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the full simulation state (see the concurrent engine's
        :meth:`~repro.concurrent.engine.ConcurrentFaultSimulator.snapshot`).

        PROOFS keeps almost no per-fault state — only the faulty flip-flop
        diffs — so its checkpoint is tiny.
        """
        import copy

        return {
            "values": list(self.good.values),
            "good_cycle": self.good.cycle,
            "cycle": self.cycle,
            "detected": dict(self.detected),
            "potential": dict(self.potentially_detected),
            "ff_diffs": {fault: dict(d) for fault, d in self.ff_diffs.items()},
            "counters": copy.copy(self.counters),
            "memory": copy.copy(self.memory),
            "responses": {
                fault: list(f) for fault, f in self._responses.items()
            },
        }

    def restore(self, state: dict) -> None:
        """Roll the simulator back to a :meth:`snapshot`."""
        import copy

        self.good.values[:] = state["values"]
        self.good.cycle = state["good_cycle"]
        self.cycle = state["cycle"]
        self.detected = dict(state["detected"])
        self.potentially_detected = dict(state["potential"])
        self.ff_diffs = {fault: dict(d) for fault, d in state["ff_diffs"].items()}
        self._responses = {
            fault: [tuple(f) for f in failures]
            for fault, failures in state.get("responses", {}).items()
        }
        self.counters = copy.copy(state["counters"])
        self.memory = copy.copy(state["memory"])

    # ------------------------------------------------------------------
    # per-cycle flow
    # ------------------------------------------------------------------

    def step(self, vector: Sequence[int]) -> List[Fault]:
        """Simulate one vector; returns faults first detected this cycle."""
        circuit = self.circuit
        self.cycle += 1
        self.counters.cycles += 1
        trace = self.tracer
        if trace is not None:
            trace.cycle_start(self.cycle)
            t0 = time.perf_counter()

        self.good.settle(vector)
        self.counters.good_evaluations += circuit.num_combinational
        if trace is not None:
            trace.good_evals(None, circuit.num_combinational)
            t1 = time.perf_counter()
            trace.phase_time("good", t1 - t0)
        good_values = self.good.values
        good_outputs = self.good.sample_outputs()

        record = self.record_responses
        active = [
            fault
            for fault in self.faults
            if (record or fault not in self.detected)
            and self._is_active(fault, good_values)
        ]
        newly: List[Fault] = []
        for group_start in range(0, len(active), self.word_size):
            group = active[group_start : group_start + self.word_size]
            newly.extend(self._simulate_group(group, good_values, good_outputs))

        live = sum(len(diffs) for diffs in self.ff_diffs.values())
        self.memory.note_elements(live)
        if trace is not None:
            trace.phase_time("groups", time.perf_counter() - t1)
        self.good.clock()
        if trace is not None:
            trace.cycle_end(self.cycle, live=live, visible=live, invisible=0)
        return newly

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
        return {
            fault: tuple(self._responses.get(fault, ())) for fault in self.faults
        }

    # ------------------------------------------------------------------
    # activity filter
    # ------------------------------------------------------------------

    def _is_active(self, fault: StuckAtFault, good_values: List[int]) -> bool:
        """Could this fault's machine differ from the good machine now?

        Yes if it carries faulty flip-flop state, or the stuck line's good
        value is not already the stuck value (an X counts: the machines
        carry different states even if no binary detection can result).
        """
        if self.ff_diffs[fault]:
            return True
        if fault.pin == OUTPUT_PIN:
            return good_values[fault.gate] != fault.value
        source = self.circuit.gates[fault.gate].fanin[fault.pin]
        return good_values[source] != fault.value

    # ------------------------------------------------------------------
    # bit-parallel group simulation
    # ------------------------------------------------------------------

    def _simulate_group(
        self,
        group: List[StuckAtFault],
        good_values: List[int],
        good_outputs: Tuple[int, ...],
    ) -> List[Fault]:
        circuit = self.circuit
        gates = circuit.gates
        width = len(group)
        mask = (1 << width) - 1
        trace = self.tracer

        # Signal words, lazily materialized from the good broadcast.  The
        # encoding and gate algebra live in repro.vector.packing, shared
        # with the pattern-axis kernel (same functions, bit axis
        # reinterpreted as one slot per cycle instead of per fault).
        ones: Dict[int, int] = {}
        xs: Dict[int, int] = {}

        def get_word(index: int) -> Tuple[int, int]:
            word = ones.get(index)
            if word is None:
                return broadcast_word(good_values[index], mask)
            return (word, xs[index])

        def set_word(index: int, one_bits: int, x_bits: int) -> bool:
            """Store a signal word; True when it changed."""
            old = get_word(index)
            if old == (one_bits, x_bits):
                return False
            ones[index] = one_bits
            xs[index] = x_bits
            return True

        # Per-site forcings for this group.
        out_force: Dict[int, List[Tuple[int, int]]] = {}
        in_force: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        queue: List[List[int]] = [[] for _ in range(circuit.num_levels + 1)]
        in_queue: Set[int] = set()
        dirty_ffs: Set[int] = set()

        def schedule(index: int) -> None:
            if index not in in_queue:
                in_queue.add(index)
                queue[gates[index].level].append(index)
                self.counters.gates_scheduled += 1
                if trace is not None:
                    trace.scheduled(index, gates[index].level)

        def emit(index: int) -> None:
            self.counters.events += 1
            if trace is not None:
                trace.event(index)
            for sink in gates[index].fanout:
                if gates[sink].gtype is GateType.DFF:
                    dirty_ffs.add(sink)
                else:
                    schedule(sink)

        for slot, fault in enumerate(group):
            bit = 1 << slot
            # Apply this machine's faulty flip-flop state.
            for ff_index, value in self.ff_diffs[fault].items():
                one_bits, x_bits = get_word(ff_index)
                one_bits &= ~bit
                x_bits &= ~bit
                if value == ONE:
                    one_bits |= bit
                elif value == X:
                    x_bits |= bit
                if set_word(ff_index, one_bits, x_bits):
                    emit(ff_index)
            # Inject the stuck line.
            if fault.pin == OUTPUT_PIN:
                out_force.setdefault(fault.gate, []).append((bit, fault.value))
                one_bits, x_bits = get_word(fault.gate)
                one_bits &= ~bit
                x_bits &= ~bit
                if fault.value == ONE:
                    one_bits |= bit
                if set_word(fault.gate, one_bits, x_bits):
                    emit(fault.gate)
            else:
                in_force.setdefault((fault.gate, fault.pin), []).append(
                    (bit, fault.value)
                )
                if gates[fault.gate].gtype is GateType.DFF:
                    dirty_ffs.add(fault.gate)
                else:
                    schedule(fault.gate)

        def operand(gate_index: int, pin: int, source: int) -> Tuple[int, int]:
            one_bits, x_bits = get_word(source)
            for bit, value in in_force.get((gate_index, pin), ()):
                one_bits &= ~bit
                x_bits &= ~bit
                if value == ONE:
                    one_bits |= bit
            return (one_bits, x_bits)

        def evaluate_word(gate_index: int) -> Tuple[int, int]:
            gate = gates[gate_index]
            operands = [
                operand(gate_index, pin, source)
                for pin, source in enumerate(gate.fanin)
            ]
            one_out, x_out = evaluate_gate_word(gate.gtype, operands, mask)
            for bit, value in out_force.get(gate_index, ()):
                one_out &= ~bit
                x_out &= ~bit
                if value == ONE:
                    one_out |= bit
            return (one_out, x_out)

        # Levelized event-driven settle, all machines in parallel.
        for level in range(1, len(queue)):
            for gate_index in queue[level]:
                in_queue.discard(gate_index)
                self.counters.fault_evaluations += 1
                if trace is not None:
                    trace.fault_evals(gate_index)
                one_out, x_out = evaluate_word(gate_index)
                if set_word(gate_index, one_out, x_out):
                    emit(gate_index)
            queue[level].clear()

        # Detection at touched primary outputs.  Hard detections (known,
        # differing values) and potential detections (known good, unknown
        # faulty) are both judged on the full output vector of the cycle.
        newly: List[Fault] = []
        for po_position, po_index in enumerate(circuit.outputs):
            if po_index not in ones:
                continue
            good_po = good_outputs[po_position]
            if not is_binary(good_po):
                continue
            good_word = mask if good_po == ONE else 0
            unknown = xs[po_index] & mask
            potential = unknown
            while potential:
                slot = (potential & -potential).bit_length() - 1
                potential &= potential - 1
                fault = group[slot]
                # No potential after a hard detection in an earlier cycle.
                if (
                    fault not in self.potentially_detected
                    and self.detected.get(fault, self.cycle) == self.cycle
                ):
                    self.potentially_detected[fault] = self.cycle
                    if trace is not None:
                        trace.detect(self._fault_ids[fault], self.cycle, potential=True)
            mismatch = (ones[po_index] ^ good_word) & mask & ~unknown
            while mismatch:
                slot = (mismatch & -mismatch).bit_length() - 1
                mismatch &= mismatch - 1
                fault = group[slot]
                if self.record_responses:
                    failures = self._responses.get(fault)
                    if failures is None:
                        failures = self._responses[fault] = []
                    failures.append((self.cycle, po_position))
                if fault not in self.detected:
                    self.detected[fault] = self.cycle
                    newly.append(fault)
                    if trace is not None:
                        # PROOFS always drops (detected faults never
                        # regroup) — except in record_responses mode,
                        # where nothing is ever dropped.
                        trace.detect(self._fault_ids[fault], self.cycle)
                        if not self.record_responses:
                            trace.drop(self._fault_ids[fault], self.cycle)

        # Next-state faulty flip-flop diffs from the settled D words.  Only
        # flip-flops whose D cone was touched (or whose D pin is a fault
        # site) can differ from the good next state; everything else keeps
        # the broadcast good value and contributes no diff.
        for slot, fault in enumerate(group):
            bit = 1 << slot
            if fault in self.detected and not self.record_responses:
                self.ff_diffs[fault].clear()
                continue
            new_diffs: Dict[int, int] = {}
            for ff_index in dirty_ffs:
                d_source = gates[ff_index].fanin[0]
                one_bits, x_bits = get_word(d_source)
                for fbit, fvalue in in_force.get((ff_index, 0), ()):
                    if fbit == bit:
                        one_bits = (one_bits & ~fbit) | (fbit if fvalue == ONE else 0)
                        x_bits &= ~fbit
                if one_bits & bit:
                    value = ONE
                elif x_bits & bit:
                    value = X
                else:
                    value = ZERO
                if value != good_values[d_source]:
                    new_diffs[ff_index] = value
            self.ff_diffs[fault] = new_diffs
        return newly
