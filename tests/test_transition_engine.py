"""Transition-fault simulation: paper example and serial cross-validation."""

import random

import pytest

from repro.baselines.serial import simulate_serial_transition
from repro.circuit.generate import random_circuit
from repro.circuit.library import load
from repro.circuit.netlist import CircuitBuilder
from repro.concurrent.options import CSIM_MV, SimOptions
from repro.concurrent.transition_engine import TransitionFaultSimulator
from repro.faults.transition import TransitionFault, all_transition_faults
from repro.logic.tables import GateType
from repro.logic.values import ONE, ZERO
from repro.obs import RecordingTracer
from repro.patterns.random_gen import random_sequence


def figure4_circuit():
    """The paper's Figure 4 example, reconstructed from the text: G1's
    second input is a fault-free combinational copy of input 1, so a rise
    on input 1 sensitizes input 1 through G1 to the output ('the good
    machine will output 0 at the sampling time, but the faulty machine
    value remains at logic value 1')."""
    builder = CircuitBuilder("fig4")
    builder.add_input("i1")
    builder.add_gate("copy", GateType.BUF, ["i1"])
    builder.add_gate("g1", GateType.NAND, ["i1", "copy"])
    builder.set_output("g1")
    return builder.build()


class TestPaperExample:
    def test_slow_to_rise_detected_by_01(self):
        """Section 3: 'To detect this fault the 01 input sequence is
        enough' — a 0 then a 1 on input 1 of G1 exposes the slow rise."""
        circuit = figure4_circuit()
        g1 = circuit.index_of("g1")
        fault = TransitionFault.make(g1, 0, rise=True)
        sim = TransitionFaultSimulator(circuit, [fault])
        assert sim.step((ZERO,)) == []  # output 1, both machines agree
        assert sim.step((ONE,)) == [fault]  # good 0, faulty still 1
        serial = simulate_serial_transition(circuit, [(ZERO,), (ONE,)], [fault])
        assert serial.detected == {fault: 2}

    def test_stuck_at_tests_are_poor_transition_tests(self):
        """Table 6's observation: stuck-at test sets reach far lower
        transition coverage than stuck-at coverage."""
        from repro.concurrent.engine import ConcurrentFaultSimulator

        circuit = load("s27")
        tests = random_sequence(circuit, 60, seed=3)
        stuck = ConcurrentFaultSimulator(circuit).run(tests)
        transition = TransitionFaultSimulator(circuit).run(tests)
        assert transition.coverage < stuck.coverage


class TestEngineBehaviour:
    def test_macros_rejected(self):
        with pytest.raises(ValueError, match="macro"):
            TransitionFaultSimulator(load("s27"), options=CSIM_MV)

    def test_default_universe(self):
        circuit = load("s27")
        sim = TransitionFaultSimulator(circuit)
        assert sim.faults == sorted(all_transition_faults(circuit))

    def test_engine_name(self):
        circuit = load("s27")
        result = TransitionFaultSimulator(circuit).run(random_sequence(circuit, 5, seed=1))
        assert result.engine.startswith("csim-T")

    @pytest.mark.parametrize("split_lists, label", [(True, "csim-TV"), (False, "csim-T")])
    def test_tracer_sees_the_transition_label(self, split_lists, label):
        # The tracer must hear the transition label from run_start on,
        # not the concurrent variant name the engine is built on.
        circuit = load("s27")
        tracer = RecordingTracer(record_events=True)
        simulator = TransitionFaultSimulator(
            circuit, options=SimOptions(split_lists=split_lists), tracer=tracer
        )
        result = simulator.run(random_sequence(circuit, 5, seed=1))
        assert result.engine == label
        assert tracer.engine == label
        assert tracer.records[0] == {
            "t": "run_start", "cycle": 0, "engine": label, "circuit": "s27"
        }
        assert result.telemetry.engine == label

    def test_two_passes_leave_combinational_converged(self):
        """After the firing pass, a fault with no latched errors must have
        no elements anywhere: its machine has settled to the good values
        (the paper: 'the combinational part of the circuit is assumed to
        settle down correctly')."""
        circuit = figure4_circuit()  # no flip-flops: nothing can latch
        g1 = circuit.index_of("g1")
        fault = TransitionFault.make(g1, 0, rise=True)
        sim = TransitionFaultSimulator(circuit, [fault])
        for vector in [(ZERO,), (ONE,), (ZERO,), (ONE,)]:
            sim.step(vector)
            assert sim._live_elements == 0


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_serial_reference(self, seed):
        rng = random.Random(seed + 500)
        circuit = random_circuit(
            rng,
            num_inputs=rng.randint(2, 5),
            num_gates=rng.randint(6, 20),
            num_dffs=rng.randint(0, 4),
            num_outputs=rng.randint(1, 3),
            name=f"txval{seed}",
        )
        faults = all_transition_faults(circuit, include_outputs=(seed % 3 == 0))
        tests = random_sequence(
            circuit,
            rng.randint(4, 25),
            seed=seed * 13 + 2,
            x_probability=0.1 if seed % 4 == 0 else 0.0,
        )
        oracle = simulate_serial_transition(circuit, tests.vectors, faults)
        for split in (False, True):
            result = TransitionFaultSimulator(
                circuit, faults, SimOptions(split_lists=split)
            ).run(tests)
            assert result.detected == oracle.detected, f"split={split}"

    def test_s27_agreement(self, s27, s27_tests):
        faults = all_transition_faults(s27)
        oracle = simulate_serial_transition(s27, s27_tests.vectors, faults)
        result = TransitionFaultSimulator(s27, faults).run(s27_tests)
        assert result.detected == oracle.detected
