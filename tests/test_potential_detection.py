"""Potential detections: known good value vs unknown faulty value.

A fault whose machine carries X at an output whose good value is known may
or may not be detected on silicon; simulators of this era report these
separately.  All engines must agree on the potential set and cycles, with
the convention that potentials are recorded up to (and including) the
cycle of hard detection.
"""

import functools
import random
from dataclasses import replace

import pytest

from repro.baselines.proofs import ProofsSimulator
from repro.baselines.serial import simulate_serial, simulate_serial_transition
from repro.circuit.generate import random_circuit
from repro.circuit.library import load
from repro.circuit.netlist import CircuitBuilder
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import CSIM, CSIM_MV, CSIM_V, SimOptions
from repro.concurrent.transition_engine import TransitionFaultSimulator
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.faults.transition import all_transition_faults
from repro.faults.universe import stuck_at_universe
from repro.harness.runner import run_stuck_at
from repro.logic.tables import GateType
from repro.logic.values import ONE, X, ZERO
from repro.patterns.random_gen import random_sequence
from repro.patterns.vectors import TestSequence
from repro.serve.cache import serialize_result


def xor_with_ff():
    """g = XOR(a, q); q latches a.  Until q initializes, the faulty (and
    good) machines disagree only through X values."""
    builder = CircuitBuilder("xff")
    builder.add_input("a")
    builder.add_dff("q", "a")
    builder.add_gate("g", GateType.XOR, ["a", "q"])
    builder.set_output("g")
    return builder.build()


class TestUnitBehaviour:
    def test_x_faulty_value_is_potential_not_hard(self):
        """good binary, faulty X at the output -> potential detection.

        In the XOR/FF circuit, a D-pin stuck-at-X cannot be expressed, so
        drive the faulty X from the uninitialized flip-flop: fault forces
        input a to 0, so the faulty machine's q never initializes the way
        the good one does... simplest construction: XOR of PI with a
        flip-flop the fault keeps at X is not constructible from stuck-at
        values, so instead check via the serial oracle on an X-rich run.
        """
        circuit = xor_with_ff()
        faults = stuck_at_universe(circuit)
        tests = TestSequence(1, [(X,), (ONE,), (ZERO,), (ONE,)])
        oracle = simulate_serial(circuit, tests.vectors, faults)
        result = ConcurrentFaultSimulator(circuit, faults).run(tests)
        assert result.potentially_detected == oracle.potentially_detected
        # Every potential was seen at a cycle where it was not yet hard.
        for fault, cycle in result.potentially_detected.items():
            hard = result.detected.get(fault)
            assert hard is None or cycle <= hard

    def test_hard_detection_still_hard(self):
        circuit = xor_with_ff()
        q = circuit.index_of("q")
        sim = ConcurrentFaultSimulator(circuit, [StuckAtFault.make(q, OUTPUT_PIN, 0)])
        sim.step((ONE,))
        newly = sim.step((ONE,))
        # good q latched 1 -> g = XOR(1,1) = 0; faulty q forced 0 -> g = 1.
        assert newly == [StuckAtFault.make(q, OUTPUT_PIN, 0)]

    def test_potential_coverage_superset(self, s27):
        tests = random_sequence(s27, 30, seed=3, x_probability=0.3)
        result = ConcurrentFaultSimulator(s27, options=CSIM_V).run(tests)
        assert result.potential_coverage >= result.coverage


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_stuck_at_potentials_match(self, seed):
        rng = random.Random(seed + 900)
        circuit = random_circuit(
            rng,
            num_inputs=rng.randint(2, 5),
            num_gates=rng.randint(6, 20),
            num_dffs=rng.randint(0, 3),
            num_outputs=rng.randint(1, 3),
            name=f"pot{seed}",
        )
        faults = stuck_at_universe(circuit)
        tests = random_sequence(circuit, rng.randint(5, 18), seed=seed, x_probability=0.3)
        oracle = simulate_serial(circuit, tests.vectors, faults)
        for options in (CSIM, CSIM_V, CSIM_MV):
            result = ConcurrentFaultSimulator(circuit, faults, options).run(tests)
            assert result.potentially_detected == oracle.potentially_detected
        proofs = ProofsSimulator(circuit, faults, word_size=8).run(tests)
        assert proofs.potentially_detected == oracle.potentially_detected

    @pytest.mark.parametrize("seed", range(5))
    def test_transition_potentials_match(self, seed):
        rng = random.Random(seed + 1900)
        circuit = random_circuit(
            rng,
            num_inputs=rng.randint(2, 4),
            num_gates=rng.randint(6, 16),
            num_dffs=rng.randint(0, 3),
            num_outputs=rng.randint(1, 2),
            name=f"tpot{seed}",
        )
        faults = all_transition_faults(circuit)
        tests = random_sequence(circuit, rng.randint(5, 15), seed=seed, x_probability=0.2)
        oracle = simulate_serial_transition(circuit, tests.vectors, faults)
        result = TransitionFaultSimulator(
            circuit, faults, SimOptions(split_lists=True)
        ).run(tests)
        assert result.potentially_detected == oracle.potentially_detected

    def test_dropping_convention(self, s27):
        """No potentials recorded after a fault's hard detection, whether
        or not elements are dropped."""
        tests = random_sequence(s27, 40, seed=3, x_probability=0.25)
        faults = stuck_at_universe(s27)
        dropped = ConcurrentFaultSimulator(s27, faults, CSIM_V).run(tests)
        kept = ConcurrentFaultSimulator(
            s27, faults, CSIM_V.with_(drop_detected=False)
        ).run(tests)
        assert dropped.potentially_detected == kept.potentially_detected
        for fault, cycle in dropped.potentially_detected.items():
            if fault in dropped.detected:
                assert cycle <= dropped.detected[fault]


class TestRecordModeMatchesOracle:
    """Record mode (no dropping) reports the potentials a dropping run
    reports: a fault hard-detected in an earlier cycle gains none."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _references(name):
        """The serial oracle's and csim-MV's record-mode runs on *name*."""
        circuit = load(name)
        faults = stuck_at_universe(circuit)
        tests = random_sequence(circuit, 32, seed=16)
        oracle = simulate_serial(
            circuit, tests.vectors, faults, record_responses=True
        )
        csim = run_stuck_at(
            circuit, tests, "csim-MV", faults=faults, record_responses=True
        )
        return circuit, faults, tests, oracle, csim

    @pytest.mark.parametrize("engine", ["PROOFS", "vsim"])
    @pytest.mark.parametrize("name", ["s298", "s386"])
    def test_record_potentials_match_serial_oracle(self, name, engine):
        circuit, faults, tests, oracle, csim = self._references(name)
        result = run_stuck_at(
            circuit, tests, engine, faults=faults, record_responses=True
        )
        assert result.potentially_detected == oracle.potentially_detected
        relabelled = replace(result, engine=csim.engine)
        assert serialize_result(relabelled, circuit) == serialize_result(csim, circuit)
