"""Fault-list sanitizer: silent on honest engines, loud on every corruption."""

import pytest

from repro.robust import FaultListSanitizer, SanitizerError
from repro.circuit.library import load
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import SimOptions
from repro.concurrent.transition_engine import TransitionFaultSimulator
from repro.harness.runner import run_stuck_at, run_transition
from repro.patterns.random_gen import random_sequence
from repro.robust.chaos import FaultListChaos

VARIANTS = (
    SimOptions(),
    SimOptions(split_lists=True),
    SimOptions(use_macros=True),
    SimOptions(split_lists=True, use_macros=True),
    SimOptions(drop_detected=False),
)


class TestCleanRuns:
    @pytest.mark.parametrize("options", VARIANTS, ids=lambda o: o.variant_name)
    def test_sanitized_run_matches_plain_run(self, options):
        circuit = load("s27")
        tests = random_sequence(circuit, 40, seed=3)
        plain = ConcurrentFaultSimulator(circuit, options=options).run(tests)
        sanitized_sim = ConcurrentFaultSimulator(
            circuit, options=options.with_(sanitize=True)
        )
        sanitized = sanitized_sim.run(tests)
        assert sanitized.detected == plain.detected
        assert sanitized.potentially_detected == plain.potentially_detected
        assert sanitized_sim._sanitizer.checks > 0

    def test_transition_engine_clean(self):
        circuit = load("s27")
        tests = random_sequence(circuit, 40, seed=5)
        plain = run_transition(circuit, tests)
        sanitized = run_transition(circuit, tests, sanitize=True)
        assert sanitized.detected == plain.detected

    def test_transition_boundaries_checked_per_cycle(self):
        circuit = load("s27")
        tests = random_sequence(circuit, 10, seed=5)
        sim = TransitionFaultSimulator(
            circuit, options=SimOptions(split_lists=True, sanitize=True)
        )
        sim.run(tests)
        # pre-cycle + sample + detect + commit at every one of 10 cycles.
        assert sim._sanitizer.checks == 4 * len(tests)

    def test_option_is_off_by_default_and_name_neutral(self):
        options = SimOptions(split_lists=True)
        assert not options.sanitize
        assert options.with_(sanitize=True).variant_name == options.variant_name
        circuit = load("s27")
        sim = ConcurrentFaultSimulator(circuit, options=options)
        assert sim._sanitizer is None

    def test_serial_transition_rejects_sanitize(self):
        circuit = load("s27")
        tests = random_sequence(circuit, 5, seed=1)
        with pytest.raises(ValueError, match="serial"):
            run_transition(circuit, tests, serial=True, sanitize=True)

    def test_harness_run_stuck_at_with_sanitizing_options(self):
        from repro.harness.runner import engine_options

        circuit = load("s27")
        tests = random_sequence(circuit, 30, seed=9)
        options = engine_options("csim-MV").with_(sanitize=True)
        plain = run_stuck_at(circuit, tests, "csim-MV")
        sanitized = run_stuck_at(circuit, tests, "csim-MV", options=options)
        assert sanitized.detected == plain.detected


class TestShardedSanitize:
    """A sharded transition campaign sanitizes every shard's engine,
    whether or not it checkpoints."""

    @pytest.mark.parametrize("checkpoint", (False, True), ids=("plain", "checkpointed"))
    def test_every_shard_engine_runs_the_sanitizer(self, checkpoint, tmp_path, monkeypatch):
        from repro.campaign import Campaign, execute
        from repro.parallel import SequentialExecutor

        built = []
        real_init = FaultListSanitizer.__init__

        def counting_init(self, simulator):
            built.append(simulator)
            real_init(self, simulator)

        monkeypatch.setattr(FaultListSanitizer, "__init__", counting_init)
        circuit = load("s27")
        tests = random_sequence(circuit, 20, seed=4)
        campaign = Campaign(
            circuit,
            tests,
            mode="transition",
            sanitize=True,
            jobs=2,
            checkpoint_path=str(tmp_path / "t.ckpt") if checkpoint else None,
        )
        result = execute(campaign, executor=SequentialExecutor())
        assert len(built) == 2
        assert all(isinstance(sim, TransitionFaultSimulator) for sim in built)
        assert result.detected == run_transition(circuit, tests).detected


class TestCorruptionDetection:
    """Every chaos corruption class must be flagged at the next boundary."""

    @pytest.mark.parametrize("corruption", FaultListChaos.CORRUPTIONS)
    @pytest.mark.parametrize("split", (False, True), ids=("flat", "split"))
    def test_corruption_raises_sanitizer_error(self, corruption, split):
        circuit = load("s27")
        tests = random_sequence(circuit, 30, seed=7)
        sim = FaultListChaos(
            circuit,
            options=SimOptions(split_lists=split, sanitize=True),
            corruption=corruption,
            corrupt_at_cycle=2,
        )
        with pytest.raises(SanitizerError) as excinfo:
            sim.run(tests)
        assert sim.applied
        assert "fault-list sanitizer" in str(excinfo.value)
        assert "boundary" in str(excinfo.value)

    def test_corruption_is_silent_without_the_sanitizer(self):
        # The point of the checker: an unsanitized engine swallows the
        # same corruption without raising.
        circuit = load("s27")
        tests = random_sequence(circuit, 30, seed=7)
        sim = FaultListChaos(
            circuit,
            options=SimOptions(),
            corruption="counter-drift",
            corrupt_at_cycle=2,
        )
        sim.run(tests)  # must not raise
        assert sim.applied

    def test_unknown_corruption_rejected(self):
        circuit = load("s27")
        with pytest.raises(ValueError, match="unknown corruption"):
            FaultListChaos(circuit, corruption="frobnicate")

    def test_error_names_cycle_and_phase(self):
        circuit = load("s27")
        tests = random_sequence(circuit, 30, seed=7)
        sim = FaultListChaos(
            circuit,
            options=SimOptions(sanitize=True),
            corruption="illegal-value",
            corrupt_at_cycle=3,
        )
        with pytest.raises(SanitizerError, match=r"cycle 3, pre-cycle boundary"):
            sim.run(tests)


class TestStandaloneChecker:
    def test_manual_check_on_healthy_simulator(self):
        circuit = load("s27")
        tests = random_sequence(circuit, 10, seed=2)
        sim = ConcurrentFaultSimulator(circuit)
        sim.run(tests)
        sanitizer = FaultListSanitizer(sim)
        sanitizer.check("post-run")  # must not raise
        assert sanitizer.checks == 1

    def test_manual_check_flags_poisoned_state(self):
        circuit = load("s27")
        tests = random_sequence(circuit, 10, seed=2)
        sim = ConcurrentFaultSimulator(circuit)
        sim.run(tests)
        sim._live_elements += 5
        with pytest.raises(SanitizerError, match="live-element counter"):
            FaultListSanitizer(sim).check("post-run")
