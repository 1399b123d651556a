"""Hypothesis properties for the vector kernel's two load-bearing claims.

1. The two-mask word encoding is a lossless round-trip for *any* slot
   values at *any* width — including the X-dense patterns that word
   engines are most likely to get wrong (an ``ones & xs`` overlap or a
   dropped X collapses three-valued logic to two).
2. Axis choice is invisible in the results: for any circuit, fault
   universe and vector set, the fault-axis, pattern-axis and scheduled
   runs — scalar or numpy plane — produce identical detections and
   potential detections.  This is what makes the scheduler a pure
   performance knob and shard-level re-planning safe.
3. Windows are invisible in the results too: in detect mode and in
   record mode (dictionary building, no dropping), at any checkpoint
   cadence the drive loop clips windows to, vsim reproduces the PROOFS
   per-cycle loop's responses, detections and potential detections, and
   both report the serial oracle's potential detections.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import make_circuit

from repro.baselines.proofs import ProofsSimulator
from repro.baselines.serial import simulate_serial
from repro.circuit.generate import random_circuit
from repro.drive import drive
from repro.faults.universe import all_stuck_at_faults
from repro.logic.values import VALUES, X
from repro.patterns.random_gen import random_sequence
from repro.patterns.vectors import TestSequence
from repro.vector import plane
from repro.vector.kernel import VectorFaultSimulator
from repro.vector.packing import pack_values, unpack_values

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPackingRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(VALUES), max_size=300))
    def test_round_trip_lossless(self, values):
        ones, xs = pack_values(values)
        assert ones & xs == 0, "the two masks must never overlap"
        assert unpack_values(ones, xs, len(values)) == values

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.sampled_from((X, X, X, X) + tuple(VALUES)),  # ~70% X slots
            min_size=1,
            max_size=300,
        )
    )
    def test_x_dense_round_trip(self, values):
        ones, xs = pack_values(values)
        assert unpack_values(ones, xs, len(values)) == values
        assert xs.bit_count() == sum(1 for value in values if value == X)


@st.composite
def vector_instance(draw):
    """A small sequential circuit, its full fault universe, vectors, and
    a word width — the axis-invariance quantifier."""
    seed = draw(st.integers(0, 2**20))
    rng = random.Random(seed)
    num_inputs = draw(st.integers(2, 4))
    circuit = random_circuit(
        rng,
        num_inputs=num_inputs,
        num_gates=draw(st.integers(4, 18)),
        num_dffs=draw(st.integers(0, 4)),
        num_outputs=draw(st.integers(1, 2)),
        name=f"vhyp{seed}",
    )
    vectors = draw(
        st.lists(
            st.tuples(*[st.sampled_from(VALUES) for _ in range(num_inputs)]),
            min_size=1,
            max_size=14,
        )
    )
    width = draw(st.sampled_from([1, 2, 5, 8, 16, 64]))
    return circuit, TestSequence(num_inputs, vectors), width


def _outcomes(result):
    return (result.detected, result.potentially_detected)


class TestAxisInvariance:
    @SLOW
    @given(vector_instance())
    def test_axis_choice_never_changes_detections(self, instance):
        circuit, tests, width = instance
        faults = all_stuck_at_faults(circuit)
        reference = None
        for axis in ("fault", "pattern", "auto"):
            numpy_paths = (False, True) if (
                plane.available() and width <= plane.MAX_PLANE_WIDTH
            ) else (False,)
            for use_numpy in numpy_paths:
                result = VectorFaultSimulator(
                    circuit,
                    faults,
                    word_width=width,
                    axis_mode=axis,
                    use_numpy=use_numpy,
                ).run(tests)
                if reference is None:
                    reference = _outcomes(result)
                else:
                    assert _outcomes(result) == reference, (
                        f"axis={axis} numpy={use_numpy} width={width}"
                    )

    @SLOW
    @given(st.integers(0, 2**16), st.sampled_from([3, 7, 16]))
    def test_width_never_changes_detections(self, seed, width):
        circuit = make_circuit(seed % 100, num_dffs=seed % 4)
        faults = all_stuck_at_faults(circuit)
        tests = TestSequence(
            len(circuit.inputs),
            random_sequence(circuit, 12, seed=seed).vectors,
        )
        wide = VectorFaultSimulator(circuit, faults, word_width=width).run(tests)
        narrow = VectorFaultSimulator(circuit, faults, word_width=1).run(tests)
        assert _outcomes(wide) == _outcomes(narrow)


class TestWindowsMatchProofs:
    @SLOW
    @given(vector_instance(), st.booleans(), st.sampled_from([0, 1, 3, 4]))
    def test_any_mode_and_cadence_matches_proofs(self, instance, record, every):
        circuit, tests, width = instance
        faults = all_stuck_at_faults(circuit)
        reference = ProofsSimulator(circuit, faults, record_responses=record).run(tests)
        oracle = simulate_serial(
            circuit, tests.vectors, faults, record_responses=record
        )
        assert reference.potentially_detected == oracle.potentially_detected
        numpy_paths = (False, True) if (
            plane.available() and width <= plane.MAX_PLANE_WIDTH
        ) else (False,)
        for axis in ("fault", "pattern", "auto"):
            for use_numpy in numpy_paths:
                simulator = VectorFaultSimulator(
                    circuit,
                    faults,
                    word_width=width,
                    axis_mode=axis,
                    use_numpy=use_numpy,
                    record_responses=record,
                )
                # A no-op save still clips every window at the cadence.
                result = drive(simulator, tests, every=every, save=lambda cycle: None)
                context = f"axis={axis} numpy={use_numpy} width={width} every={every}"
                assert _outcomes(result) == _outcomes(reference), context
                assert result.responses == reference.responses, context
