"""Hypothesis property tests over the core invariants.

These complement the seeded cross-validation tests with shrinkable,
adversarial instances: hypothesis controls circuit shape, fault subsets and
vector content, and every property is one the paper's algorithm depends on.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.proofs import ProofsSimulator
from repro.baselines.serial import simulate_serial
from repro.circuit.generate import random_circuit
from repro.circuit.macro import extract_macros
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import CSIM, CSIM_MV, CSIM_V
from repro.faults.universe import all_stuck_at_faults
from repro.logic.values import VALUES
from repro.patterns.vectors import TestSequence
from repro.sim.logicsim import LogicSimulator

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def circuit_and_vectors(draw, max_gates=18, max_vectors=12):
    seed = draw(st.integers(0, 2**20))
    num_inputs = draw(st.integers(2, 4))
    num_gates = draw(st.integers(4, max_gates))
    num_dffs = draw(st.integers(0, 3))
    circuit = random_circuit(
        random.Random(seed),
        num_inputs=num_inputs,
        num_gates=num_gates,
        num_dffs=num_dffs,
        num_outputs=draw(st.integers(1, 2)),
        name=f"hyp{seed}",
    )
    vectors = draw(
        st.lists(
            st.tuples(*[st.sampled_from(VALUES) for _ in range(num_inputs)]),
            min_size=1,
            max_size=max_vectors,
        )
    )
    return circuit, TestSequence(num_inputs, vectors)


class TestEngineEquivalence:
    @SLOW
    @given(circuit_and_vectors())
    def test_concurrent_equals_serial(self, instance):
        circuit, tests = instance
        faults = all_stuck_at_faults(circuit)
        oracle = simulate_serial(circuit, tests.vectors, faults)
        for options in (CSIM, CSIM_V, CSIM_MV):
            result = ConcurrentFaultSimulator(circuit, faults, options).run(tests)
            assert result.detected == oracle.detected

    @SLOW
    @given(circuit_and_vectors())
    def test_proofs_equals_serial(self, instance):
        circuit, tests = instance
        faults = all_stuck_at_faults(circuit)
        oracle = simulate_serial(circuit, tests.vectors, faults)
        result = ProofsSimulator(circuit, faults, word_size=4).run(tests)
        assert result.detected == oracle.detected


class TestMacroExactness:
    @SLOW
    @given(circuit_and_vectors())
    def test_macro_circuit_value_identical(self, instance):
        circuit, tests = instance
        macro = extract_macros(circuit).circuit
        flat_sim = LogicSimulator(circuit)
        macro_sim = LogicSimulator(macro)
        for vector in tests:
            assert flat_sim.step(vector) == macro_sim.step(vector)


class TestEngineInvariants:
    @SLOW
    @given(circuit_and_vectors())
    def test_visible_elements_differ_from_good(self, instance):
        """Structural invariant of the data structure: a visible element's
        value always differs from the good value; an invisible element's
        always equals it."""
        circuit, tests = instance
        sim = ConcurrentFaultSimulator(circuit, all_stuck_at_faults(circuit), CSIM_V)
        for vector in tests:
            sim.step(vector)
            for gate_index in range(len(circuit.gates)):
                good = sim.good[gate_index]
                for value in sim.vis[gate_index].values():
                    assert value != good
                for value in sim.invis[gate_index].values():
                    assert value == good

    @SLOW
    @given(circuit_and_vectors())
    def test_detection_monotone_in_prefix(self, instance):
        """Running a prefix can never detect faults the full run misses,
        and detection cycles agree on the common prefix."""
        circuit, tests = instance
        faults = all_stuck_at_faults(circuit)
        full = ConcurrentFaultSimulator(circuit, faults, CSIM_V).run(tests)
        half = ConcurrentFaultSimulator(circuit, faults, CSIM_V).run(
            tests.prefix(max(1, len(tests) // 2))
        )
        for fault, cycle in half.detected.items():
            assert full.detected.get(fault) == cycle

    @SLOW
    @given(circuit_and_vectors(max_vectors=8))
    def test_good_values_match_reference(self, instance):
        """The concurrent engine's good machine equals the reference
        simulator at every observed output, every cycle."""
        circuit, tests = instance
        sim = ConcurrentFaultSimulator(circuit, [], CSIM)
        reference = LogicSimulator(circuit)
        for vector in tests:
            reference.step(vector)
            sim.step(vector)
            # Post-clock states must coincide gate for gate.
            assert sim.good == reference.values
