"""Serial fault simulation — the correctness oracle.

One faulty machine at a time, each a full :class:`LogicSimulator` run over
the whole test sequence (stopping at first detection).  Cost is
``O(faults × vectors × gates)``, hopeless for real work and exactly why the
paper exists, but its simplicity makes it the reference every other engine
is validated against.

Also provides the serial *transition-fault* reference implementing
Section 3's two-pass semantics one fault at a time, used to validate
:class:`repro.concurrent.TransitionFaultSimulator`.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit, evaluate_gate
from repro.faults.model import Fault, OUTPUT_PIN, StuckAtFault
from repro.faults.transition import TransitionFault, all_transition_faults, delayed_value
from repro.faults.universe import stuck_at_universe
from repro.logic.values import X, is_binary
from repro.result import Failure, FaultSimResult, MemoryStats, WorkCounters
from repro.sim.logicsim import LogicSimulator


def _binary_mismatch(good: Sequence[int], faulty: Sequence[int]) -> bool:
    return any(
        is_binary(g) and is_binary(f) and g != f for g, f in zip(good, faulty)
    )


def _potential_mismatch(good: Sequence[int], faulty: Sequence[int]) -> bool:
    """Known good value, unknown faulty value: a potential detection."""
    return any(is_binary(g) and f == X for g, f in zip(good, faulty))


def simulate_serial(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    faults: Optional[Iterable[StuckAtFault]] = None,
    drop_detected: bool = True,
    budget=None,
    tracer=None,
    record_responses: bool = False,
) -> FaultSimResult:
    """Simulate every fault serially; returns the standard result record.

    ``record_responses`` switches the run into dictionary-building mode:
    dropping is disabled (every machine runs the full sequence), every
    binary output mismatch is recorded as a ``(cycle, po_position)``
    failure on ``result.responses``, and ``detected`` keeps *first*
    detection cycles — identical to what a dropping run reports.

    A ``budget`` (:class:`repro.robust.budget.Budget`) bounds the run by
    wall clock only — the serial loop is per *fault*, not per cycle, so the
    budget is checked between faulty machines and the result is flagged
    truncated when the limit hits (remaining faults simply stay
    undetected in the partial result).

    A ``tracer`` (:class:`repro.obs.Tracer`) mirrors the work counters
    through the standard hooks — one ``cycle_start`` per good-machine
    cycle, bulk ``good_evals``/``fault_evals`` per settled network — so a
    recording tracer reconciles exactly with the reported counters, same
    as every concurrent engine.
    """
    fault_list = sorted(faults) if faults is not None else stuck_at_universe(circuit)
    if record_responses:
        drop_detected = False
    clock = budget.start() if budget else None
    trace = tracer
    start = time.perf_counter()
    counters = WorkCounters()
    if trace is not None:
        trace.run_start("serial", circuit.name)

    good = LogicSimulator(circuit)
    good_outputs: List[Tuple[int, ...]] = []
    for cycle, vector in enumerate(vectors, start=1):
        if trace is not None:
            trace.cycle_start(cycle)
        good_outputs.append(good.step(vector))
        counters.good_evaluations += circuit.num_combinational
        if trace is not None:
            trace.good_evals(None, circuit.num_combinational)
            trace.cycle_end(cycle)
    counters.cycles = len(good_outputs)

    detected: Dict[Fault, int] = {}
    potential: Dict[Fault, int] = {}
    responses: Optional[Dict[Fault, Tuple[Failure, ...]]] = (
        {} if record_responses else None
    )
    truncation_reason = None
    for fid, fault in enumerate(fault_list):
        if clock is not None:
            breach = clock.check(0)  # wall clock is the only serial axis
            if breach is not None:
                truncation_reason = breach.describe()
                if trace is not None:
                    trace.budget_breach(breach.kind, breach.limit, breach.actual)
                break
        machine = LogicSimulator(circuit, fault)
        failures: List[Failure] = []
        for cycle, vector in enumerate(vectors, start=1):
            outputs = machine.step(vector)
            counters.fault_evaluations += circuit.num_combinational
            if trace is not None:
                trace.fault_evals(None, circuit.num_combinational)
            good = good_outputs[cycle - 1]
            if (
                fault not in potential
                and fault not in detected
                and _potential_mismatch(good, outputs)
            ):
                potential[fault] = cycle
                if trace is not None:
                    trace.detect(fid, cycle, potential=True)
            if record_responses:
                hits = [
                    (cycle, position)
                    for position, (g, f) in enumerate(zip(good, outputs))
                    if is_binary(g) and is_binary(f) and g != f
                ]
                if hits:
                    failures.extend(hits)
                    # First-detection semantics, matching a dropping run.
                    if fault not in detected:
                        detected[fault] = cycle
                        if trace is not None:
                            trace.detect(fid, cycle)
            elif _binary_mismatch(good, outputs):
                detected[fault] = cycle
                if trace is not None:
                    trace.detect(fid, cycle)
                if drop_detected:
                    if trace is not None:
                        trace.drop(fid, cycle)
                    break
        if responses is not None:
            responses[fault] = tuple(failures)

    result = FaultSimResult(
        engine="serial",
        circuit_name=circuit.name,
        num_faults=len(fault_list),
        num_vectors=len(vectors),
        detected=detected,
        potentially_detected=potential,
        counters=counters,
        # Serial simulation stores whole machines, not fault elements; the
        # descriptor count keeps the memory model comparable across engines.
        memory=MemoryStats(num_descriptors=len(fault_list)),
        wall_seconds=time.perf_counter() - start,
        truncated=truncation_reason is not None,
        truncation_reason=truncation_reason,
        responses=responses,
    )
    if trace is not None:
        trace.run_end(result.wall_seconds)
        result.telemetry = trace.telemetry()
    return result


class _SerialTransitionMachine:
    """One faulty machine under the two-pass transition semantics."""

    def __init__(self, circuit: Circuit, fault: TransitionFault) -> None:
        self.circuit = circuit
        self.fault = fault
        self.values: List[int] = [X] * len(circuit.gates)
        self.prev_site_value = X

    def _site_source(self) -> int:
        if self.fault.pin == OUTPUT_PIN:
            return self.fault.gate
        return self.circuit.gates[self.fault.gate].fanin[self.fault.pin]

    def _settle(self, vector: Sequence[int], firing: bool) -> None:
        circuit = self.circuit
        fault = self.fault
        for pi_index, value in zip(circuit.inputs, vector):
            self.values[pi_index] = value
        if not firing and fault.pin == OUTPUT_PIN:
            site_gate = circuit.gates[fault.gate]
            if site_gate.gtype.name in ("INPUT", "DFF"):
                self.values[fault.gate] = delayed_value(
                    self.prev_site_value, self.values[fault.gate], fault.kind
                )
        for gate_index in circuit.order:
            gate = circuit.gates[gate_index]
            inputs = [self.values[source] for source in gate.fanin]
            if not firing and fault.gate == gate_index and fault.pin != OUTPUT_PIN:
                inputs[fault.pin] = delayed_value(
                    self.prev_site_value, inputs[fault.pin], fault.kind
                )
            value = evaluate_gate(gate, inputs)
            if not firing and fault.gate == gate_index and fault.pin == OUTPUT_PIN:
                value = delayed_value(self.prev_site_value, value, fault.kind)
            self.values[gate_index] = value

    def step(self, vector: Sequence[int]) -> Tuple[int, ...]:
        """One cycle: sampling pass, PO sample + master latch, firing pass,
        slave commit; returns sampled PO values."""
        circuit = self.circuit
        fault = self.fault
        # Pass 1: transitions held; sample.
        self._settle(vector, firing=False)
        outputs = tuple(self.values[index] for index in circuit.outputs)
        pending: List[Tuple[int, int]] = []
        for ff_index in circuit.dffs:
            d_value = self.values[circuit.gates[ff_index].fanin[0]]
            if fault.gate == ff_index and fault.pin == 0:
                d_value = delayed_value(self.prev_site_value, d_value, fault.kind)
            pending.append((ff_index, d_value))
        # Pass 2: transitions fired; the network completes its cycle.
        self._settle(vector, firing=True)
        self.prev_site_value = self.values[self._site_source()]
        for ff_index, value in pending:
            self.values[ff_index] = value
        return outputs


def simulate_serial_transition(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    faults: Optional[Iterable[TransitionFault]] = None,
    drop_detected: bool = True,
) -> FaultSimResult:
    """Serial reference for the transition-fault model (Section 3)."""
    fault_list = (
        sorted(faults) if faults is not None else all_transition_faults(circuit)
    )
    start = time.perf_counter()
    counters = WorkCounters()

    good = LogicSimulator(circuit)
    good_outputs: List[Tuple[int, ...]] = []
    for vector in vectors:
        good_outputs.append(good.step(vector))
        counters.good_evaluations += circuit.num_combinational
    counters.cycles = len(good_outputs)

    detected: Dict[Fault, int] = {}
    potential: Dict[Fault, int] = {}
    for fault in fault_list:
        machine = _SerialTransitionMachine(circuit, fault)
        for cycle, vector in enumerate(vectors, start=1):
            outputs = machine.step(vector)
            counters.fault_evaluations += 2 * circuit.num_combinational
            good = good_outputs[cycle - 1]
            if (
                fault not in potential
                and fault not in detected
                and _potential_mismatch(good, outputs)
            ):
                potential[fault] = cycle
            if _binary_mismatch(good, outputs):
                detected[fault] = cycle
                if drop_detected:
                    break

    return FaultSimResult(
        engine="serial-transition",
        circuit_name=circuit.name,
        num_faults=len(fault_list),
        num_vectors=len(vectors),
        detected=detected,
        potentially_detected=potential,
        counters=counters,
        memory=MemoryStats(num_descriptors=len(fault_list)),
        wall_seconds=time.perf_counter() - start,
    )
