"""Tests for the resilience subsystem: checkpoints, budgets, runner, ladder."""

import os
import signal
from pathlib import Path

import pytest

from repro.campaign import Campaign, execute
from repro.circuit.library import load
from repro.concurrent.options import SimOptions
from repro.diagnosis.store import write_dictionary
from repro.harness.runner import run_stuck_at, run_transition, workload_tests
from repro.obs import RecordingTracer
from repro.obs.tracer import Tracer
from repro.patterns.random_gen import random_sequence
from repro.robust import (
    Budget,
    CampaignInterrupted,
    Checkpoint,
    CheckpointError,
    TableCampaign,
    circuit_fingerprint,
    config_fingerprint,
    invariant_violations,
    read_checkpoint,
    run_fingerprint,
    run_with_ladder,
    write_checkpoint,
)
from repro.robust.budget import BudgetBreach
from repro.robust.ladder import oracle_spot_check
from repro.serve.cache import ResultCache, serialize_result
from repro.serve.store import JobRecord, JobStore


@pytest.fixture(scope="module")
def s27():
    return load("s27")


@pytest.fixture(scope="module")
def s27_tests(s27):
    return workload_tests("s27")


def _same_result(left, right):
    """Bit-identity on everything but wall-clock time."""
    assert left.detected == right.detected
    assert left.potentially_detected == right.potentially_detected
    assert left.counters == right.counters
    assert left.memory.peak_bytes == right.memory.peak_bytes
    assert left.num_vectors == right.num_vectors
    assert left.num_faults == right.num_faults
    assert left.coverage == right.coverage


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        original = Checkpoint("run", "fp", {"cycle": 7, "state": {"x": [1, 2]}})
        write_checkpoint(path, original)
        loaded = read_checkpoint(path)
        assert loaded.kind == "run"
        assert loaded.fingerprint == "fp"
        assert loaded.payload == original.payload

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint file"):
            read_checkpoint(str(tmp_path / "absent.pkl"))

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        write_checkpoint(path, Checkpoint("run", "fp", {"state": list(range(100))}))
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(size - 5)
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            read_checkpoint(path)

    def test_corruption_detected(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        write_checkpoint(path, Checkpoint("run", "fp", {"state": list(range(100))}))
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            read_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = str(tmp_path / "notes.txt")
        open(path, "w").write("just some text, definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        write_checkpoint(path, Checkpoint("run", "fp-a", {}))
        with pytest.raises(CheckpointError, match="different campaign"):
            read_checkpoint(path, expect_fingerprint="fp-b")

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        for cycle in range(5):
            write_checkpoint(path, Checkpoint("run", "fp", {"cycle": cycle}))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.pkl"]
        assert read_checkpoint(path).payload["cycle"] == 4

    def test_fingerprints_are_config_sensitive(self, s27, s27_tests):
        base = run_fingerprint(s27, s27_tests, "csim-MV", [], False)
        assert base == run_fingerprint(s27, s27_tests, "csim-MV", [], False)
        assert base != run_fingerprint(s27, s27_tests, "csim", [], False)
        assert base != run_fingerprint(s27, s27_tests, "csim-MV", [], True)
        other = load("s298", scale=0.25)
        assert circuit_fingerprint(s27) != circuit_fingerprint(other)
        assert config_fingerprint("a", 1) != config_fingerprint("a", 2)


def _write_checkpoint(directory, blob):
    path = os.path.join(directory, "ck.pkl")
    write_checkpoint(path, Checkpoint("run", "fp", {"blob": blob}))
    return path


def _write_job_record(directory, blob):
    store = JobStore(directory)
    store.save(JobRecord("job-000001", {"note": blob.decode()}))
    return os.path.join(store.jobs_dir, "job-000001.json")


def _write_job_result(directory, blob):
    store = JobStore(directory)
    store.write_result("job-000001", blob)
    return store.result_path("job-000001")


def _write_cache_entry(directory, blob):
    ResultCache(directory).put("key", blob)
    return os.path.join(directory, "key.json")


def _write_dictionary(directory, blob):
    path = os.path.join(directory, "artifacts", "s27.dict.json")
    write_dictionary(path, blob)
    return path


DURABLE_WRITERS = {
    "checkpoint": _write_checkpoint,
    "job-record": _write_job_record,
    "job-result": _write_job_result,
    "cache-entry": _write_cache_entry,
    "dictionary": _write_dictionary,
}


@pytest.mark.parametrize(
    "writer", list(DURABLE_WRITERS.values()), ids=list(DURABLE_WRITERS)
)
def test_durable_write(tmp_path, monkeypatch, writer):
    """Each writer fsyncs before its rename, and a failed rename leaves
    the previous file intact and no temp file behind."""
    synced = []
    real_fsync = os.fsync

    def spy_fsync(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    path = writer(str(tmp_path), b"first")
    assert synced
    previous = Path(path).read_bytes()
    files = sorted(tmp_path.rglob("*"))

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        writer(str(tmp_path), b"second")
    assert Path(path).read_bytes() == previous
    assert sorted(tmp_path.rglob("*")) == files


class TestBudget:
    def test_unset_budget_is_falsy(self):
        assert not Budget()
        assert Budget(max_cycles=5)

    def test_cycle_budget_truncates(self, s27, s27_tests):
        result = run_stuck_at(s27, s27_tests, "csim-MV", budget=Budget(max_cycles=5))
        assert result.truncated
        assert result.num_vectors == 5
        assert "cycle budget" in result.truncation_reason
        assert "[truncated:" in result.summary()

    def test_wall_budget_truncates(self, s27, s27_tests):
        result = run_stuck_at(
            s27, s27_tests, "csim-MV", budget=Budget(max_wall_seconds=0.0)
        )
        assert result.truncated
        assert "wall-clock budget" in result.truncation_reason
        assert result.num_vectors == 0

    def test_unbreached_budget_changes_nothing(self, s27, s27_tests):
        plain = run_stuck_at(s27, s27_tests, "csim-MV")
        budgeted = run_stuck_at(
            s27, s27_tests, "csim-MV", budget=Budget(max_cycles=10**9)
        )
        _same_result(plain, budgeted)
        assert not budgeted.truncated
        assert budgeted.truncation_reason is None

    def test_breach_reported_through_tracer(self, s27, s27_tests):
        tracer = RecordingTracer()
        result = run_stuck_at(
            s27, s27_tests, "csim-MV", tracer=tracer, budget=Budget(max_cycles=3)
        )
        assert result.truncated
        assert len(tracer.budget_breaches) == 1
        breach = tracer.budget_breaches[0]
        assert breach["kind"] == "cycles"
        assert breach["limit"] == 3
        assert result.telemetry.budget_breaches == tracer.budget_breaches

    @pytest.mark.parametrize("engine", ["PROOFS", "serial"])
    def test_other_engines_truncate_cleanly(self, s27, s27_tests, engine):
        budget = (
            Budget(max_cycles=4) if engine == "PROOFS" else Budget(max_wall_seconds=0.0)
        )
        result = run_stuck_at(s27, s27_tests, engine, budget=budget)
        assert result.truncated

    def test_transition_budget(self, s27, s27_tests):
        result = run_transition(s27, s27_tests, budget=Budget(max_cycles=4))
        assert result.truncated
        assert result.num_vectors == 4

    def test_breach_describe(self):
        assert "wall-clock" in BudgetBreach("wall", 1.0, 2.0).describe()
        assert "cycle" in BudgetBreach("cycles", 5, 5).describe()

    @pytest.mark.parametrize("path", ["direct", "checkpointed", "jobs=2"])
    def test_cycle_budget_is_exact_for_every_engine(self, path, tmp_path):
        # vsim applies up to 64 cycles per window; a cycle budget must
        # still stop it, on every path, at the same cycle as the others.
        circuit = load("s298")
        tests = random_sequence(circuit, 64, seed=1)
        blobs = set()
        for engine in ("csim-MV", "PROOFS", "vsim"):
            budget = Budget(max_cycles=10)
            if path == "direct":
                result = run_stuck_at(circuit, tests, engine, budget=budget)
            elif path == "checkpointed":
                result = execute(
                    Campaign(
                        circuit,
                        tests,
                        engine,
                        budget=budget,
                        checkpoint_every=16,
                        checkpoint_path=str(tmp_path / f"{engine}.ckpt"),
                    )
                )
            else:
                result = run_stuck_at(circuit, tests, engine, budget=budget, jobs=2)
            assert result.num_vectors == 10, engine
            assert result.truncated, engine
            result.engine = "relabelled"
            blobs.add(serialize_result(result, circuit))
        assert len(blobs) == 1


class TestRunCheckpointed:
    @pytest.mark.parametrize(
        "circuit_name,engine",
        [
            ("s27", "csim-MV"),
            ("s27", "csim"),
            ("s27", "PROOFS"),
            ("s298", "csim-MV"),
            ("s298", "PROOFS"),
        ],
    )
    def test_interrupt_and_resume_bit_identical(self, tmp_path, circuit_name, engine):
        """The acceptance criterion: kill mid-run, resume, identical result."""
        scale = 0.25
        circuit = load(circuit_name, scale=scale)
        tests = workload_tests(circuit_name, scale)
        reference = run_stuck_at(circuit, tests, engine)
        path = str(tmp_path / "ck.pkl")
        # "Kill" mid-run via a cycle budget: the truncated run writes its
        # final checkpoint, exactly like an interrupted one.
        partial = execute(
            Campaign(
                circuit,
                tests,
                engine,
                budget=Budget(max_cycles=max(2, len(tests.vectors) // 3)),
                checkpoint_path=path,
                checkpoint_every=4,
            )
        )
        assert partial.truncated
        assert partial.num_vectors < reference.num_vectors
        resumed = execute(
            Campaign(circuit, tests, engine, checkpoint_path=path, resume=True)
        )
        _same_result(reference, resumed)

    def test_uninterrupted_equals_plain_run(self, tmp_path, s27, s27_tests):
        reference = run_stuck_at(s27, s27_tests, "csim-MV")
        path = str(tmp_path / "ck.pkl")
        result = execute(Campaign(s27, s27_tests, "csim-MV", checkpoint_path=path))
        _same_result(reference, result)

    def test_transition_resume_bit_identical(self, tmp_path, s27, s27_tests):
        reference = run_transition(s27, s27_tests)
        path = str(tmp_path / "ck.pkl")
        partial = execute(
            Campaign(
                s27,
                s27_tests,
                mode="transition",
                budget=Budget(max_cycles=10),
                checkpoint_path=path,
            )
        )
        assert partial.truncated
        resumed = execute(
            Campaign(
                s27,
                s27_tests,
                mode="transition",
                checkpoint_path=path,
                resume=True,
            )
        )
        _same_result(reference, resumed)

    def test_raw_interrupt_resumes_from_periodic_checkpoint(
        self, tmp_path, s27, s27_tests, monkeypatch
    ):
        """A KeyboardInterrupt raised mid-step (not at the latched boundary)
        must leave the last periodic checkpoint usable."""
        from repro.concurrent.engine import ConcurrentFaultSimulator

        reference = run_stuck_at(s27, s27_tests, "csim-MV")
        path = str(tmp_path / "ck.pkl")
        real_step = ConcurrentFaultSimulator.step
        calls = {"n": 0}

        def exploding_step(self, vector):
            calls["n"] += 1
            if calls["n"] == 11:
                raise KeyboardInterrupt
            return real_step(self, vector)

        monkeypatch.setattr(ConcurrentFaultSimulator, "step", exploding_step)
        with pytest.raises(CampaignInterrupted) as info:
            execute(
                Campaign(
                    s27,
                    s27_tests,
                    "csim-MV",
                    checkpoint_path=path,
                    checkpoint_every=4,
                )
            )
        assert info.value.checkpoint_path == path
        monkeypatch.setattr(ConcurrentFaultSimulator, "step", real_step)
        assert read_checkpoint(path).payload["cycle"] == 8
        resumed = execute(
            Campaign(s27, s27_tests, "csim-MV", checkpoint_path=path, resume=True)
        )
        _same_result(reference, resumed)

    def test_sigint_writes_final_checkpoint_at_boundary(
        self, tmp_path, s27, s27_tests
    ):
        """A real SIGINT is latched and honoured between cycles: the final
        checkpoint captures every cycle completed so far."""

        class Interrupter(Tracer):
            def __init__(self):
                self.cycles = 0

            def cycle_start(self, cycle):
                self.cycles += 1
                if self.cycles == 9:
                    os.kill(os.getpid(), signal.SIGINT)

        reference = run_stuck_at(s27, s27_tests, "csim-MV")
        path = str(tmp_path / "ck.pkl")
        with pytest.raises(CampaignInterrupted) as info:
            execute(
                Campaign(
                    s27,
                    s27_tests,
                    "csim-MV",
                    tracer=Interrupter(),
                    checkpoint_path=path,
                    checkpoint_every=1000,
                )
            )
        assert info.value.cycles_done == 9
        assert read_checkpoint(path).payload["cycle"] == 9
        resumed = execute(
            Campaign(s27, s27_tests, "csim-MV", checkpoint_path=path, resume=True)
        )
        _same_result(reference, resumed)

    def test_resume_with_wrong_config_refused(self, tmp_path, s27, s27_tests):
        path = str(tmp_path / "ck.pkl")
        execute(Campaign(s27, s27_tests, "csim-MV", checkpoint_path=path))
        with pytest.raises(CheckpointError, match="different campaign"):
            execute(Campaign(s27, s27_tests, "csim", checkpoint_path=path, resume=True))

    def test_resume_without_path_refused(self, s27, s27_tests):
        with pytest.raises(CheckpointError, match="without a checkpoint path"):
            execute(Campaign(s27, s27_tests, resume=True))

    def test_serial_engine_rejected(self, tmp_path, s27, s27_tests):
        with pytest.raises(ValueError, match="serial"):
            execute(
                Campaign(s27, s27_tests, "serial", checkpoint_path=str(tmp_path / "ck"))
            )


class TestInvariants:
    def test_clean_run_has_no_violations(self, s27, s27_tests):
        from repro.harness.runner import make_stuck_at_simulator

        simulator = make_stuck_at_simulator(s27, "csim-MV")
        simulator.run(s27_tests)
        assert invariant_violations(simulator) == []

    def test_violations_reported(self, s27, s27_tests):
        from repro.harness.runner import make_stuck_at_simulator

        simulator = make_stuck_at_simulator(s27, "csim-MV")
        for vector in s27_tests.vectors[:3]:
            simulator.step(vector)
        simulator.vis[0][999] = 7  # a brand-new element the counter missed
        violations = invariant_violations(simulator)
        assert any("illegal logic value" in v for v in violations)
        assert any("counter" in v for v in violations)

    def test_event_engine_lists_and_counter(self, s27, s27_tests):
        from repro.concurrent import ConcurrentEventFaultSimulator

        simulator = ConcurrentEventFaultSimulator(s27)
        simulator.run(s27_tests.vectors, period=16)
        assert invariant_violations(simulator) == []
        simulator._live += 1
        assert any(
            "live-element counter" in v for v in invariant_violations(simulator)
        )

    @pytest.mark.parametrize("engine", ["PROOFS", "vsim"])
    def test_word_engine_flip_flop_diffs(self, s27, s27_tests, engine):
        from repro.harness.runner import make_stuck_at_simulator

        simulator = make_stuck_at_simulator(s27, engine)
        simulator.run(s27_tests)
        assert invariant_violations(simulator) == []
        simulator.ff_diffs[0] = {s27.dffs[0]: 7}
        assert any(
            "illegal logic value" in v for v in invariant_violations(simulator)
        )


class TestLadder:
    def test_clean_first_rung_no_fallbacks(self, s27, s27_tests):
        reference = run_stuck_at(s27, s27_tests, "csim-MV")
        result = run_with_ladder(s27, s27_tests)
        assert result.fallbacks == []
        assert result.detected == reference.detected
        assert "degraded" not in result.summary()

    def test_spot_check_agrees_on_clean_run(self, s27, s27_tests):
        result = run_stuck_at(s27, s27_tests, "csim-MV")
        assert oracle_spot_check(s27, s27_tests, result, sample_size=100) == []

    def test_spot_check_flags_wrong_detections(self, s27, s27_tests):
        result = run_stuck_at(s27, s27_tests, "csim-MV")
        fault = next(iter(result.detected))
        result.detected[fault] += 1  # corrupt one detection cycle
        discrepancies = oracle_spot_check(s27, s27_tests, result, sample_size=100)
        assert len(discrepancies) == 1
        assert discrepancies[0]["fault"] == repr(fault)

    def test_crashing_engine_degrades(self, s27, s27_tests):
        class Exploding:
            faults = []

            def run(self, tests, budget=None):
                raise RuntimeError("engine exploded")

        def factory(engine, circuit, faults, tracer):
            return Exploding() if engine == "csim-MV" else None

        tracer = RecordingTracer()
        reference = run_stuck_at(s27, s27_tests, "csim-MV")
        result = run_with_ladder(
            s27, s27_tests, tracer=tracer, simulator_factory=factory
        )
        assert result.detected == reference.detected
        assert [f["to"] for f in result.fallbacks] == ["csim"]
        assert "engine exploded" in result.fallbacks[0]["reason"]
        assert tracer.fallbacks == result.fallbacks
        assert "[degraded: csim-MV -> csim]" in result.summary()

    def test_serial_rung_keeps_the_tracer(self, s27):
        class Exploding:
            faults = []

            def run(self, tests, budget=None):
                raise RuntimeError("engine exploded")

        tests = random_sequence(s27, 16, seed=3)
        tracer = RecordingTracer()
        result = run_with_ladder(
            s27,
            tests,
            ladder=("csim-MV", "serial"),
            tracer=tracer,
            simulator_factory=lambda *args: Exploding(),
        )
        assert result.engine == "serial"
        assert result.counters.fault_evaluations > 0
        assert result.telemetry is not None
        assert result.telemetry.totals == result.counters

    def test_every_rung_crashing_reaches_serial(self, s27, s27_tests):
        class Exploding:
            faults = []

            def run(self, tests, budget=None):
                raise RuntimeError("boom")

        reference = run_stuck_at(s27, s27_tests, "serial")
        result = run_with_ladder(
            s27, s27_tests, simulator_factory=lambda *a: Exploding()
        )
        assert result.engine == "serial"
        assert result.detected == reference.detected
        assert [f["engine"] for f in result.fallbacks] == ["csim-MV", "csim"]

    def test_repeated_budget_breach_degrades(self, s27, s27_tests):
        # A 0-cycle budget breaches on every rung; after the retries the
        # ladder lands on serial, whose wall-clock-only budget is unlimited
        # here, so the run completes there.
        result = run_with_ladder(s27, s27_tests, budget=Budget(max_cycles=0))
        assert result.engine == "serial"
        assert len(result.fallbacks) == 2
        assert all("budget breached 2x" in f["reason"] for f in result.fallbacks)

    def test_exhausted_ladder_raises(self, s27, s27_tests):
        class Exploding:
            faults = []

            def run(self, tests, budget=None):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_with_ladder(
                s27,
                s27_tests,
                ladder=("csim-MV", "csim"),
                simulator_factory=lambda *a: Exploding(),
            )

    @pytest.mark.parametrize(
        "settings",
        [
            {"mode": "transition"},
            {"mode": "record"},
            {"jobs": 2},
            {"checkpoint_path": "ck.pkl"},
            {"options": SimOptions()},
            {"sanitize": True},
        ],
        ids=lambda settings: next(iter(settings)),
    )
    def test_ladder_campaign_refuses_settings_it_cannot_honour(
        self, s27, s27_tests, settings
    ):
        from repro.campaign import Campaign
        from repro.robust import DEFAULT_LADDER

        with pytest.raises(ValueError, match="ladder"):
            Campaign(s27, s27_tests, ladder=DEFAULT_LADDER, **settings)

    def test_empty_ladder_rejected(self, s27, s27_tests):
        with pytest.raises(ValueError, match="empty"):
            run_with_ladder(s27, s27_tests, ladder=())


class TestTableCampaign:
    def test_cells_computed_once_across_resume(self, tmp_path):
        path = str(tmp_path / "tables.pkl")
        calls = []

        def make(value):
            def compute():
                calls.append(value)
                return value

            return compute

        first = TableCampaign(path, fingerprint="fp")
        assert first.cell(("t", 1), make("a")) == "a"
        assert first.cell(("t", 2), make("b")) == "b"
        resumed = TableCampaign(path, resume=True, fingerprint="fp")
        assert resumed.cell(("t", 1), make("a")) == "a"
        assert resumed.cell(("t", 3), make("c")) == "c"
        assert calls == ["a", "b", "c"]  # nothing recomputed on resume

    def test_resume_wrong_fingerprint_refused(self, tmp_path):
        path = str(tmp_path / "tables.pkl")
        TableCampaign(path, fingerprint="fp-a").cell(("t", 1), lambda: 1)
        with pytest.raises(CheckpointError, match="different campaign"):
            TableCampaign(path, resume=True, fingerprint="fp-b")

    def test_interrupt_saves_completed_cells(self, tmp_path):
        path = str(tmp_path / "tables.pkl")
        campaign = TableCampaign(path, fingerprint="fp")
        campaign.cell(("t", 1), lambda: "done")

        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as info:
            campaign.cell(("t", 2), interrupted)
        assert info.value.checkpoint_path == path
        resumed = TableCampaign(path, resume=True, fingerprint="fp")
        assert resumed.cells == {("t", 1): "done"}

    def test_table_driver_resumes_without_recompute(self, tmp_path, monkeypatch):
        from repro.harness import tables

        path = str(tmp_path / "tables.pkl")
        campaign = TableCampaign(path, fingerprint="fp")
        rows, text = tables.table2(("s27",), campaign=campaign)
        assert rows[0]["circuit"] == "s27"

        def forbidden(*args, **kwargs):
            raise AssertionError("resumed campaign must not recompute")

        monkeypatch.setattr(tables, "workload_circuit", forbidden)
        resumed = TableCampaign(path, resume=True, fingerprint="fp")
        rows_again, _ = tables.table2(("s27",), campaign=resumed)
        assert rows_again == rows
