"""Chaos harness tests: every injected failure is detected or recovered.

Three injection classes of :mod:`repro.robust.chaos`, each asserted
against the guard that must catch it:

* dropped events           -> ladder's serial spot-check catches, degrades
* corrupted list elements  -> invariant check or crash, ladder degrades
* truncated checkpoints    -> read_checkpoint refuses with a clean error
"""

import pytest

from repro.campaign import Campaign, execute
from repro.circuit.library import load
from repro.harness.runner import run_stuck_at, workload_tests
from repro.obs import RecordingTracer
from repro.patterns.vectors import TestSequence
from repro.robust import (
    Checkpoint,
    CheckpointError,
    invariant_violations,
    read_checkpoint,
    run_with_ladder,
    write_checkpoint,
)
from repro.robust.chaos import (
    ElementCorruptionChaos,
    EventDropChaos,
    chaos_simulator_factory,
    truncate_file,
)


@pytest.fixture(scope="module")
def s27():
    return load("s27")


@pytest.fixture(scope="module")
def s27_tests(s27):
    return workload_tests("s27")


@pytest.fixture(scope="module")
def short_tests(s27_tests):
    """Few enough vectors that coverage stays below 100% and fault
    elements are still live at the end of the run — so a corrupted
    element cannot be masked by fault dropping."""
    return TestSequence(s27_tests.num_inputs, s27_tests.vectors[:4])


class TestEventDropping:
    def test_dropped_events_corrupt_the_result(self, s27, s27_tests):
        """Premise check: the chaotic engine really is wrong on its own."""
        honest = run_stuck_at(s27, s27_tests, "csim-MV")
        chaotic = EventDropChaos(s27, drop_every=2).run(s27_tests)
        assert chaotic.detected != honest.detected

    def test_ladder_recovers(self, s27, s27_tests):
        reference = run_stuck_at(s27, s27_tests, "csim-MV")
        tracer = RecordingTracer()
        result = run_with_ladder(
            s27,
            s27_tests,
            tracer=tracer,
            simulator_factory=chaos_simulator_factory("drop-events", drop_every=2),
        )
        assert result.detected == reference.detected
        assert result.engine == "csim"
        assert len(result.fallbacks) == 1
        assert "oracle disagreement" in result.fallbacks[0]["reason"]
        assert tracer.fallbacks == result.fallbacks


class TestElementCorruption:
    def test_corruption_is_caught_by_a_guard(self, s27, short_tests):
        simulator = ElementCorruptionChaos(s27, corrupt_at_cycle=2)
        crashed = False
        try:
            for vector in short_tests.vectors:
                simulator.step(vector)
        except Exception:
            # The poisoned value was used as a packed table index.
            crashed = True
        assert simulator.corrupted is not None
        if not crashed:
            violations = invariant_violations(simulator)
            assert any("illegal logic value" in v for v in violations)

    def test_ladder_recovers(self, s27, short_tests):
        reference = run_stuck_at(s27, short_tests, "csim-MV")
        result = run_with_ladder(
            s27,
            short_tests,
            simulator_factory=chaos_simulator_factory(
                "corrupt-element", corrupt_at_cycle=2
            ),
        )
        assert result.detected == reference.detected
        assert len(result.fallbacks) == 1
        reason = result.fallbacks[0]["reason"]
        # Either guard may fire first depending on circuit activity; both
        # are detections of the same injected corruption.
        assert "invariant violated" in reason or "engine raised" in reason

    def test_unknown_chaos_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            chaos_simulator_factory("set-fire-to-the-building")


class TestTruncatedCheckpoint:
    def test_every_truncation_length_is_detected(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        write_checkpoint(path, Checkpoint("run", "fp", {"state": list(range(50))}))
        import os

        full = os.path.getsize(path)
        for keep in (0, 1, 5, 9, 10, 20, 41, full - 1):
            write_checkpoint(path, Checkpoint("run", "fp", {"state": list(range(50))}))
            truncate_file(path, keep)
            with pytest.raises(CheckpointError):
                read_checkpoint(path)

    def test_resume_from_truncated_checkpoint_refused(
        self, tmp_path, s27, s27_tests
    ):
        path = str(tmp_path / "ck.pkl")
        execute(Campaign(s27, s27_tests, "csim-MV", checkpoint_path=path))
        truncate_file(path, 64)
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            execute(
                Campaign(s27, s27_tests, "csim-MV", checkpoint_path=path, resume=True)
            )
