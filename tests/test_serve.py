"""Service-layer tests: queue, batching, cache, persistence, bit-identity."""

import json

import pytest

from repro.circuit.library import load
from repro.harness.runner import run_stuck_at, run_transition
from repro.patterns.random_gen import random_sequence
from repro.serve import (
    FaultSimService,
    JobQueue,
    QueueFull,
    ServeConfig,
    SpecError,
    cache_key,
    serialize_result,
)
from repro.serve.spec import JobSpec, SpecResolver
from repro.serve.store import RETIRED_SPEC_KEYS


def make_service(tmp_path, **overrides):
    overrides.setdefault("workers", 0)
    config = ServeConfig(state_dir=str(tmp_path / "state"), **overrides)
    return FaultSimService(config)


S27_JOB = {"circuit": "s27", "random_patterns": 40, "seed": 7}

#: A queued record, byte for byte as the store wrote it while job specs
#: still carried ``shard_strategy`` and ``sanitize``.
RETIRED_KEYS_RECORD = (
    b'{"attempts": 0, "batch_size": 0, "cache_hit": false, "cache_key": '
    b'"88f77673de6a0188130e03e85bc0fd8f6eaf54054b4cc67649848fa50aa0595a", '
    b'"created_at": 1792444290.9563067, "deadline_at": null, "error": null, '
    b'"error_history": [], "error_history_dropped": 0, "finished_at": null, '
    b'"idempotency_key": null, "job_id": "job-000001", "lease_expires_at": null, '
    b'"lease_owner": null, "next_retry_at": null, "priority": 0, '
    b'"resumed_from_cycle": 0, "spec": {"circuit": "s27", "engine": "csim-MV", '
    b'"jobs": 2, "priority": 0, "prune_untestable": false, "random_patterns": 32, '
    b'"sanitize": true, "scale": 1.0, "seed": 4, "shard_strategy": "level-balanced", '
    b'"transition": false}, "started_at": null, "state": "queued", "summary": null, '
    b'"trace_id": null}'
)


class TestSubmit:
    def test_submit_and_drain_completes(self, tmp_path):
        service = make_service(tmp_path)
        record, created = service.submit(dict(S27_JOB))
        assert created
        assert record.state == "queued"
        assert service.drain() == 1
        finished = service.status(record.job_id)
        assert finished.state == "done"
        assert not finished.cache_hit
        assert "csim-MV" in finished.summary

    def test_bad_specs_rejected(self, tmp_path):
        service = make_service(tmp_path)
        for payload in (
            {},  # no circuit
            {"circuit": "s27", "netlist": "INPUT(a)"},  # both sources
            {"circuit": "s27", "engine": "bogus"},
            {"circuit": "s27", "vectors": "01\n", "random_patterns": 4},
            {"circuit": "s27", "jobs": 0},
            {"circuit": "s27", "surprise": 1},
            {"netlist": "INPUT(a)\ng = FROB(a)\nOUTPUT(g)\n"},
        ):
            with pytest.raises(SpecError):
                service.submit(payload)
        assert service.store.all_records() == []

    @pytest.mark.parametrize("engine", ["PROOFS", "vsim", "serial", "csim", "csim-V"])
    def test_transition_spec_refuses_another_engine(self, engine, tmp_path):
        """A transition job always runs csim-TV; an engine it would ignore
        is refused instead of being served as csim-TV."""
        service = make_service(tmp_path)
        with pytest.raises(SpecError, match="transition"):
            service.submit(dict(S27_JOB, transition=True, engine=engine))
        assert service.store.all_records() == []

    def test_transition_spec_round_trips_its_default_engine(self):
        spec = JobSpec.from_payload(dict(S27_JOB, transition=True))
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_idempotency_key_returns_existing(self, tmp_path):
        service = make_service(tmp_path)
        first, created_first = service.submit(
            dict(S27_JOB, idempotency_key="alpha")
        )
        again, created_again = service.submit(
            dict(S27_JOB, idempotency_key="alpha")
        )
        assert created_first and not created_again
        assert again.job_id == first.job_id
        assert len(service.store.all_records()) == 1

    def test_queue_full_rejects_and_rolls_back(self, tmp_path):
        service = make_service(tmp_path, queue_limit=2)
        service.submit(dict(S27_JOB, seed=1))
        service.submit(dict(S27_JOB, seed=2))
        with pytest.raises(QueueFull):
            service.submit(dict(S27_JOB, seed=3))
        # The refused job left no durable trace; the queue still drains.
        assert len(service.store.all_records()) == 2
        assert service.metrics_snapshot()["jobs"]["rejected"] == 1
        assert service.drain() == 2

    def test_priority_orders_execution(self, tmp_path):
        service = make_service(tmp_path, max_batch=1)
        low, _ = service.submit(dict(S27_JOB, seed=1, priority=0))
        high, _ = service.submit(dict(S27_JOB, seed=2, priority=5))
        service.drain()
        assert (
            service.status(high.job_id).started_at
            < service.status(low.job_id).started_at
        )


class TestBitIdentity:
    """The acceptance criterion: service output == direct run output."""

    def test_stuck_at_matches_direct_run(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit(dict(S27_JOB))
        service.drain()
        circuit = load("s27")
        tests = random_sequence(circuit, 40, seed=7)
        direct = run_stuck_at(circuit, tests, "csim-MV")
        assert service.result_bytes(record.job_id) == serialize_result(
            direct, circuit
        )

    def test_transition_matches_direct_run(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit(
            {"circuit": "s27", "random_patterns": 30, "seed": 3, "transition": True}
        )
        service.drain()
        circuit = load("s27")
        tests = random_sequence(circuit, 30, seed=3)
        direct = run_transition(circuit, tests)
        assert service.result_bytes(record.job_id) == serialize_result(
            direct, circuit
        )

    def test_sharded_job_matches_direct_run(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit(dict(S27_JOB, jobs=2))
        service.drain()
        assert service.status(record.job_id).state == "done"
        circuit = load("s27")
        tests = random_sequence(circuit, 40, seed=7)
        direct = run_stuck_at(circuit, tests, "csim-MV")
        assert service.result_bytes(record.job_id) == serialize_result(
            direct, circuit
        )

    @pytest.mark.parametrize("engine", ("csim", "PROOFS", "serial"))
    def test_other_engines_match_direct_runs(self, tmp_path, engine):
        service = make_service(tmp_path)
        record, _ = service.submit(dict(S27_JOB, engine=engine))
        service.drain()
        finished = service.status(record.job_id)
        assert finished.state == "done", finished.error
        circuit = load("s27")
        tests = random_sequence(circuit, 40, seed=7)
        direct = run_stuck_at(circuit, tests, engine)
        document = json.loads(service.result_bytes(record.job_id))
        expected = json.loads(serialize_result(direct, circuit))
        assert document["detected"] == expected["detected"]


class TestResultCache:
    def test_duplicate_served_from_cache_without_resimulation(self, tmp_path):
        service = make_service(tmp_path)
        first, _ = service.submit(dict(S27_JOB))
        service.drain()
        duplicate, _ = service.submit(dict(S27_JOB))
        # Finished at submit time: never queued, never simulated.
        assert duplicate.state == "done"
        assert duplicate.cache_hit
        assert service.queue.depth() == 0
        metrics = service.metrics_snapshot()
        assert metrics["jobs"]["simulated"] == 1
        assert metrics["cache"]["hits"] == 1
        assert service.result_bytes(duplicate.job_id) == service.result_bytes(
            first.job_id
        )

    def test_sharding_does_not_change_cache_identity(self, tmp_path):
        """jobs cannot change the outcome, so a sharded duplicate of a
        single-process job is a cache hit."""
        service = make_service(tmp_path)
        service.submit(dict(S27_JOB))
        service.drain()
        duplicate, _ = service.submit(dict(S27_JOB, jobs=3))
        assert duplicate.cache_hit

    def test_in_flight_duplicates_coalesce(self, tmp_path):
        service = make_service(tmp_path)
        a, _ = service.submit(dict(S27_JOB))
        b, _ = service.submit(dict(S27_JOB))
        assert service.status(b.job_id).state == "queued"  # nothing cached yet
        service.drain()
        assert service.status(a.job_id).state == "done"
        assert service.status(b.job_id).state == "done"
        assert service.metrics_snapshot()["jobs"]["simulated"] == 1
        assert service.result_bytes(a.job_id) == service.result_bytes(b.job_id)

    def test_cache_disabled_resimulates(self, tmp_path):
        service = make_service(tmp_path, cache_results=False)
        service.submit(dict(S27_JOB))
        service.submit(dict(S27_JOB))
        service.drain()
        assert service.metrics_snapshot()["jobs"]["simulated"] == 2

    def test_wall_truncated_results_are_not_cached(self, tmp_path):
        service = make_service(tmp_path, max_seconds_per_job=0.0)
        record, _ = service.submit(dict(S27_JOB))
        service.drain()
        finished = service.status(record.job_id)
        assert finished.state == "done"
        assert json.loads(service.result_bytes(record.job_id))["truncated"]
        assert finished.cache_key not in service.cache


class TestBatching:
    def test_same_circuit_jobs_batch_together(self, tmp_path):
        service = make_service(tmp_path, max_batch=8, cache_results=False)
        for seed in range(4):
            service.submit(dict(S27_JOB, seed=seed))
        assert service.process_once() == 4
        metrics = service.metrics_snapshot()
        assert metrics["batch"]["max_size"] == 4
        assert all(
            record.batch_size == 4 for record in service.store.all_records()
        )

    def test_different_circuits_do_not_batch(self, tmp_path):
        service = make_service(tmp_path, max_batch=8, cache_results=False)
        service.submit(dict(S27_JOB, seed=1))
        service.submit({"circuit": "s298", "scale": 0.25, "random_patterns": 10})
        assert service.process_once() == 1
        assert service.process_once() == 1

    def test_max_batch_1_disables_coalescing(self, tmp_path):
        service = make_service(tmp_path, max_batch=1, cache_results=False)
        for seed in range(3):
            service.submit(dict(S27_JOB, seed=seed))
        assert service.process_once() == 1
        assert service.metrics_snapshot()["batch"]["max_size"] == 1

    def test_batched_results_identical_to_unbatched(self, tmp_path):
        batched = make_service(tmp_path / "a", max_batch=8, cache_results=False)
        unbatched = make_service(tmp_path / "b", max_batch=1, cache_results=False)
        ids = {}
        for service, label in ((batched, "a"), (unbatched, "b")):
            for seed in range(3):
                record, _ = service.submit(dict(S27_JOB, seed=seed))
                ids[(label, seed)] = record.job_id
            service.drain()
        for seed in range(3):
            assert batched.result_bytes(ids[("a", seed)]) == unbatched.result_bytes(
                ids[("b", seed)]
            )


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit(dict(S27_JOB))
        assert service.cancel(record.job_id)
        assert service.status(record.job_id).state == "cancelled"
        assert service.drain() == 0

    def test_cancel_finished_job_refused(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit(dict(S27_JOB))
        service.drain()
        assert not service.cancel(record.job_id)
        assert service.status(record.job_id).state == "done"

    def test_cancel_unknown_job_refused(self, tmp_path):
        assert not make_service(tmp_path).cancel("job-999999")


class TestPersistence:
    def test_store_survives_restart(self, tmp_path):
        config = ServeConfig(state_dir=str(tmp_path / "state"), workers=0)
        service = FaultSimService(config)
        record, _ = service.submit(dict(S27_JOB))
        service.drain()
        blob = service.result_bytes(record.job_id)

        reborn = FaultSimService(config)
        assert reborn.recover() == 0  # done jobs stay done
        revived = reborn.status(record.job_id)
        assert revived.state == "done"
        assert reborn.result_bytes(record.job_id) == blob
        # The cache survived too: a duplicate still hits.
        duplicate, _ = reborn.submit(dict(S27_JOB))
        assert duplicate.cache_hit

    def test_record_with_retired_spec_keys_runs(self, tmp_path):
        """The store drops retired spec fields on load, so a record that
        carries them recovers and runs to a fresh submission's bytes."""
        assert set(RETIRED_SPEC_KEYS) <= set(json.loads(RETIRED_KEYS_RECORD)["spec"])
        jobs_dir = tmp_path / "state" / "jobs"
        jobs_dir.mkdir(parents=True)
        (jobs_dir / "job-000001.json").write_bytes(RETIRED_KEYS_RECORD)
        reborn = make_service(tmp_path)
        assert reborn.recover() == 1
        assert reborn.drain() == 1
        assert reborn.status("job-000001").state == "done"
        fresh = make_service(tmp_path / "fresh")
        record, _ = fresh.submit(
            {"circuit": "s27", "random_patterns": 32, "seed": 4, "jobs": 2}
        )
        assert fresh.drain() == 1
        assert reborn.result_bytes("job-000001") == fresh.result_bytes(record.job_id)

    @pytest.mark.parametrize("key", RETIRED_SPEC_KEYS)
    def test_retired_spec_keys_refused_on_submit(self, tmp_path, key):
        service = make_service(tmp_path)
        value = json.loads(RETIRED_KEYS_RECORD)["spec"][key]
        with pytest.raises(SpecError, match=f"unknown job fields: {key}"):
            service.submit(dict(S27_JOB, **{key: value}))
        assert service.store.all_records() == []

    def test_recover_requeues_queued_jobs(self, tmp_path):
        config = ServeConfig(state_dir=str(tmp_path / "state"), workers=0)
        service = FaultSimService(config)
        record, _ = service.submit(dict(S27_JOB))
        # New process: the queue is empty but the record is durable.
        reborn = FaultSimService(config)
        assert reborn.recover() == 1
        assert reborn.drain() == 1
        assert reborn.status(record.job_id).state == "done"


class TestWorkers:
    def test_background_workers_drain_the_queue(self, tmp_path):
        import time

        service = make_service(tmp_path, workers=2)
        records = [service.submit(dict(S27_JOB, seed=seed))[0] for seed in range(4)]
        service.start()
        try:
            deadline = time.time() + 30
            while time.time() < deadline:
                states = {service.status(r.job_id).state for r in records}
                if states == {"done"}:
                    break
                time.sleep(0.05)
            assert {service.status(r.job_id).state for r in records} == {"done"}
        finally:
            service.stop()


class TestJobQueue:
    def test_priority_then_fifo(self):
        queue = JobQueue(capacity=8)
        queue.push("a", 0)
        queue.push("b", 2)
        queue.push("c", 2)
        queue.push("d", 1)
        assert [queue.pop(timeout=0) for _ in range(4)] == ["b", "c", "d", "a"]

    def test_bounded(self):
        queue = JobQueue(capacity=1)
        queue.push("a")
        with pytest.raises(QueueFull):
            queue.push("b")
        assert queue.pop(timeout=0) == "a"
        queue.push("b")  # capacity freed

    def test_cancel_frees_capacity(self):
        queue = JobQueue(capacity=1)
        queue.push("a")
        assert queue.cancel("a")
        assert not queue.cancel("a")  # already marked
        queue.push("b")
        assert queue.pop(timeout=0) == "b"
        assert queue.pop(timeout=0) is None

    def test_pop_if_takes_only_wanted(self):
        queue = JobQueue(capacity=8)
        for job_id in ("a", "b", "c"):
            queue.push(job_id)
        assert queue.pop_if(frozenset({"b"})) == "b"
        assert queue.pop_if(frozenset({"b"})) is None
        assert [queue.pop(timeout=0), queue.pop(timeout=0)] == ["a", "c"]


class TestResolver:
    def test_circuit_loads_are_memoized(self):
        resolver = SpecResolver(capacity=2)
        spec = JobSpec.from_payload({"circuit": "s27"})
        first = resolver.circuit_for(spec)
        assert resolver.circuit_for(spec) is first
        assert resolver.loads == 1

    def test_lru_evicts_beyond_capacity(self):
        resolver = SpecResolver(capacity=1)
        s27 = JobSpec.from_payload({"circuit": "s27"})
        s298 = JobSpec.from_payload({"circuit": "s298", "scale": 0.25})
        resolver.circuit_for(s27)
        resolver.circuit_for(s298)
        resolver.circuit_for(s27)
        assert resolver.loads == 3


class TestCacheKeyUnits:
    """Deterministic spot checks; the hypothesis suite fuzzes the rest."""

    def _key(self, payload):
        resolver = SpecResolver()
        spec = JobSpec.from_payload(payload)
        resolved = resolver.resolve(spec)
        return cache_key(spec, resolved.circuit, resolved.tests, resolved.faults)

    def test_key_is_stable(self, tmp_path):
        assert self._key(dict(S27_JOB)) == self._key(dict(S27_JOB))

    def test_scheduling_knobs_do_not_change_key(self):
        assert self._key(dict(S27_JOB)) == self._key(
            dict(S27_JOB, jobs=4, priority=9)
        )

    def test_semantic_knobs_change_key(self):
        base = self._key(dict(S27_JOB))
        assert self._key(dict(S27_JOB, seed=8)) != base
        assert self._key(dict(S27_JOB, engine="csim")) != base
        assert self._key(dict(S27_JOB, max_cycles=10)) != base
        assert self._key(dict(S27_JOB, transition=True)) != base
