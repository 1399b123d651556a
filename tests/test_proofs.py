"""PROOFS-specific behaviour: bit-parallel algebra, activity filter, groups."""


import pytest

from repro.baselines.proofs import ProofsSimulator
from repro.circuit.library import load
from repro.circuit.macro import extract_macros
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.faults.universe import stuck_at_universe
from repro.logic.values import ONE, ZERO
from repro.patterns.random_gen import random_sequence
from repro.vector.core import broadcast


class TestConstruction:
    def test_macro_circuits_rejected(self):
        macro = extract_macros(load("s27")).circuit
        with pytest.raises(ValueError, match="flat circuits"):
            ProofsSimulator(macro)

    def test_default_universe_collapsed(self, s27):
        sim = ProofsSimulator(s27)
        assert sim.faults == stuck_at_universe(s27)


class TestActivityFilter:
    def test_inactive_fault_skipped(self, s27):
        """A stuck value matching the good line value with no state diff
        means the machines coincide; PROOFS must not simulate it."""
        pi = s27.inputs[0]
        matching = StuckAtFault.make(pi, OUTPUT_PIN, 0)  # PI is 0, stuck 0
        opposing = StuckAtFault.make(pi, OUTPUT_PIN, 1)
        sim = ProofsSimulator(s27, faults=[matching, opposing])
        vector = (ZERO, ZERO, ZERO, ZERO)
        sim.good.settle(vector)
        active = sim._active(*broadcast(sim.good.values, 1), 1)
        assert sim.faults.index(matching) not in active
        assert sim.faults.index(opposing) in active

    def test_state_diff_makes_fault_active(self, s27):
        sim = ProofsSimulator(s27)
        fid = 0
        sim.ff_diffs[fid][s27.dffs[0]] = ONE
        sim.good.settle((ZERO, ZERO, ZERO, ZERO))
        assert fid in sim._active(*broadcast(sim.good.values, 1), 1)


class TestGrouping:
    def test_many_groups_small_words(self, s27, s27_tests):
        small = ProofsSimulator(s27, word_size=2).run(s27_tests)
        large = ProofsSimulator(s27, word_size=128).run(s27_tests)
        assert small.detected == large.detected

    def test_memory_counts_state_diffs(self, s27, s27_tests):
        result = ProofsSimulator(s27).run(s27_tests)
        assert result.memory.peak_elements >= 0
        assert result.counters.cycles == len(s27_tests)

    def test_detected_faults_not_regrouped(self, s27):
        sim = ProofsSimulator(s27)
        tests = random_sequence(s27, 30, seed=3)
        for vector in tests:
            sim.step(vector)
        # Once detected, a fault's diffs are cleared and stay cleared.
        for fault, cycle in sim.detected.items():
            assert not sim.ff_diffs[sim.faults.index(fault)]


class TestStep:
    def test_step_returns_new_detections_once(self, s27):
        sim = ProofsSimulator(s27)
        seen = set()
        for vector in random_sequence(s27, 40, seed=3):
            newly = sim.step(vector)
            assert not (set(newly) & seen)
            seen.update(newly)
        assert seen == set(sim.detected)

    def test_reset(self, s27, s27_tests):
        sim = ProofsSimulator(s27)
        first = sim.run(s27_tests)
        sim.reset()
        second = sim.run(s27_tests)
        assert first.detected == second.detected
