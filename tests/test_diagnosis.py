"""Fault dictionaries and dictionary-based diagnosis."""

import json
import random

import pytest

from repro.baselines.serial import simulate_serial
from repro.circuit.generate import random_circuit
from repro.circuit.library import load
from repro.diagnosis import build_dictionary, diagnose
from repro.diagnosis.dictionary import FullResponseDictionary, PassFailDictionary
from repro.faults.universe import stuck_at_universe
from repro.logic.values import is_binary
from repro.patterns.random_gen import random_sequence
from repro.sim.logicsim import LogicSimulator


@pytest.fixture(scope="module")
def s27_setup():
    circuit = load("s27")
    tests = random_sequence(circuit, 40, seed=3)
    faults = stuck_at_universe(circuit)
    dictionary = build_dictionary(circuit, tests, faults)
    return circuit, tests, faults, dictionary


class TestBuild:
    def test_kind_validation(self, s27_setup):
        circuit, tests, faults, _ = s27_setup
        with pytest.raises(ValueError, match="unknown dictionary kind"):
            build_dictionary(circuit, tests, faults, kind="tiny")

    def test_full_dictionary_type(self, s27_setup):
        _, _, _, dictionary = s27_setup
        assert isinstance(dictionary, FullResponseDictionary)
        assert len(dictionary) > 0

    def test_signature_domain(self, s27_setup):
        circuit, tests, _, dictionary = s27_setup
        for fault, signature in dictionary.signatures.items():
            for cycle, po_position in signature:
                assert 1 <= cycle <= len(tests)
                assert 0 <= po_position < len(circuit.outputs)

    def test_detected_matches_first_detection_engine(self, s27_setup):
        """A fault has a non-empty signature iff the (dropping) simulator
        detects it, and its earliest failing cycle is the detection cycle."""
        circuit, tests, faults, dictionary = s27_setup
        oracle = simulate_serial(circuit, tests.vectors, faults)
        assert set(dictionary.detected_faults()) == set(oracle.detected)
        for fault, cycle in oracle.detected.items():
            earliest = min(c for c, _ in dictionary.signature(fault))
            assert earliest == cycle

    def test_signatures_match_serial_machine(self, s27_setup):
        """Spot-check full signatures against explicit serial simulation."""
        circuit, tests, faults, dictionary = s27_setup
        good = LogicSimulator(circuit)
        good_outputs = [good.step(v) for v in tests]
        rng = random.Random(1)
        for fault in rng.sample(list(faults), 8):
            machine = LogicSimulator(circuit, fault)
            expected = set()
            for cycle, vector in enumerate(tests, start=1):
                outputs = machine.step(vector)
                for position, (g, f) in enumerate(zip(good_outputs[cycle - 1], outputs)):
                    if is_binary(g) and is_binary(f) and g != f:
                        expected.add((cycle, position))
            assert dictionary.signature(fault) == frozenset(expected)

    def test_passfail_is_projection(self, s27_setup):
        circuit, tests, faults, full = s27_setup
        passfail = build_dictionary(circuit, tests, faults, kind="passfail")
        assert isinstance(passfail, PassFailDictionary)
        for fault in faults:
            assert passfail.signature(fault) == frozenset(
                cycle for cycle, _ in full.signature(fault)
            )

    def test_indistinguishable_groups_share_signatures(self, s27_setup):
        _, _, _, dictionary = s27_setup
        for group in dictionary.indistinguishable_groups():
            signatures = {dictionary.signature(fault) for fault in group}
            assert len(signatures) == 1
            assert len(group) > 1


class TestDiagnose:
    def test_injected_fault_is_found_exactly(self, s27_setup):
        """Simulate a defective device with a known fault; diagnosis must
        rank that fault (or its indistinguishable twins) first, exactly."""
        circuit, tests, faults, dictionary = s27_setup
        rng = random.Random(7)
        detected = dictionary.detected_faults()
        for fault in rng.sample(detected, 6):
            observation = dictionary.signature(fault)
            result = diagnose(dictionary, observation)
            assert result.best.exact
            assert fault in result.exact_candidates

    def test_noisy_observation_still_ranks_culprit_high(self, s27_setup):
        """Drop one failure from the observation (intermittent defect):
        the culprit should remain among the top candidates."""
        circuit, tests, faults, dictionary = s27_setup
        rng = random.Random(11)
        candidates_with_rich_signatures = [
            fault
            for fault in dictionary.detected_faults()
            if len(dictionary.signature(fault)) >= 3
        ]
        fault = rng.choice(candidates_with_rich_signatures)
        observation = set(dictionary.signature(fault))
        observation.discard(sorted(observation)[0])
        result = diagnose(dictionary, observation, top=10)
        assert fault in [candidate.fault for candidate in result.candidates]

    def test_empty_observation(self, s27_setup):
        _, _, _, dictionary = s27_setup
        result = diagnose(dictionary, [])
        assert not result.candidates
        assert result.summary() == "no candidates"

    def test_summary_mentions_exactness(self, s27_setup):
        _, _, _, dictionary = s27_setup
        fault = dictionary.detected_faults()[0]
        result = diagnose(dictionary, dictionary.signature(fault))
        assert "exact" in result.summary()

    def test_cli_summary_names_the_closest_fault(self, capsys):
        """The serialized summary names the best fault the way its first
        candidate does, not with the fault object's repr."""
        from repro.cli import main

        assert main(["diagnose", "s27", "--random-patterns", "64", "--seed", "9",
                     "--failures", "17:0,18:0,19:0,28:0", "--top", "3"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["candidates"][0]["fault"] == "G2:SA1"
        assert body["summary"] == "closest: G2:SA1 (score 0.444)"

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits_roundtrip(self, seed):
        rng = random.Random(seed + 300)
        circuit = random_circuit(rng, num_gates=15, num_dffs=2, name=f"diag{seed}")
        tests = random_sequence(circuit, 25, seed=seed)
        dictionary = build_dictionary(circuit, tests)
        for fault in dictionary.detected_faults()[:5]:
            result = diagnose(dictionary, dictionary.signature(fault))
            assert fault in result.exact_candidates
