"""The fault-tolerant execution plane: leases, retries, deadlines, drain.

The headline scenario is the mid-batch worker kill: a batch of coalesced
queue-mates is claimed (every member leased), the worker dies on the head
job, and — without any service restart — the reaper notices the expired
leases, re-queues victim and stranded mates alike, and the retries resume
from checkpoints to results bit-identical to uninterrupted runs.

Around it: transient failures retry with backoff until the attempt budget
dead-letters them (and ``retry_job`` resurrects them), permanent failures
fail fast on attempt 1, per-job deadlines produce the truncated-result
contract and skip the cache, and a draining service refuses submissions
while finishing what it holds.
"""

import json
import threading
import time

import pytest

from repro.circuit.library import load
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.harness.runner import run_stuck_at
from repro.obs import parse_prometheus_text, render_prometheus
from repro.patterns.random_gen import random_sequence
from repro.robust.chaos import ChaosError, step_bomb
from repro.serve import FaultSimService, ServeConfig, serialize_result
from repro.serve.service import ServiceDraining, classify_failure
from repro.serve.spec import SpecError
from repro.serve.store import ERROR_MAX_CHARS, JobRecord

JOB = {"circuit": "s27", "random_patterns": 40, "seed": 5}


def make_service(tmp_path, name="state", **overrides):
    overrides.setdefault("workers", 0)
    overrides.setdefault("checkpoint_every", 4)
    overrides.setdefault("lease_ttl", 0.05)
    overrides.setdefault("retry_jitter", 0.0)
    return FaultSimService(ServeConfig(state_dir=str(tmp_path / name), **overrides))


def direct_blob(seed, patterns=40):
    circuit = load("s27")
    result = run_stuck_at(
        circuit, random_sequence(circuit, patterns, seed=seed), "csim-MV"
    )
    return serialize_result(result, circuit)


# ----------------------------------------------------------------------
# the tentpole scenario: worker killed mid-batch, reaped without restart
# ----------------------------------------------------------------------


class TestMidBatchKill:
    def test_batch_members_reaped_and_bit_identical(self, tmp_path):
        service = make_service(tmp_path)
        seeds = (5, 6, 7)
        records = [
            service.submit({**JOB, "seed": seed})[0] for seed in seeds
        ]
        victim_id = records[0].job_id

        # The worker claims all three (one batch: same circuit + engine),
        # dies 10 cycles into the head job.  Mates never start.
        with step_bomb(ConcurrentFaultSimulator, after_steps=10):
            with pytest.raises(KeyboardInterrupt):
                service.process_once()
        assert service.status(victim_id).state == "running"
        for record in records:
            assert service.status(record.job_id).lease_owner is not None

        # No restart, no recover(): lease expiry alone reclaims the batch.
        time.sleep(3 * service.config.lease_ttl)
        assert service.reap() == len(seeds)
        for record in records:
            refreshed = service.status(record.job_id)
            assert refreshed.state == "queued"
            assert refreshed.lease_owner is None

        with step_bomb(ConcurrentFaultSimulator, after_steps=10_000) as counter:
            assert service.drain() == len(seeds)

        victim = service.status(victim_id)
        assert victim.state == "done", victim.error
        assert victim.attempts == 2
        # checkpoint_every=4, killed after 10 cycles -> resume from cycle 8.
        assert victim.resumed_from_cycle == 8
        assert victim.error_history and victim.error_history[0]["kind"] == "lease"
        for record, seed in zip(records, seeds):
            assert service.result_bytes(record.job_id) == direct_blob(seed)
        # The victim's retry simulated 40-8 cycles; each mate all 40.
        assert counter["calls"] == (40 - 8) + 40 * (len(seeds) - 1)

        snapshot = service.metrics_snapshot()
        assert snapshot["resilience"]["lease_expirations"] >= len(seeds)
        assert snapshot["resilience"]["retries"] >= 1
        assert snapshot["leases"]["active"] == 0

    def test_mates_keep_attempt_count_victim_increments(self, tmp_path):
        service = make_service(tmp_path)
        records = [service.submit({**JOB, "seed": seed})[0] for seed in (5, 6)]
        with step_bomb(ConcurrentFaultSimulator, after_steps=10):
            with pytest.raises(KeyboardInterrupt):
                service.process_once()
        time.sleep(3 * service.config.lease_ttl)
        service.reap()
        service.drain()
        victim, mate = (service.status(r.job_id) for r in records)
        assert victim.attempts == 2  # claimed, died, retried
        assert mate.attempts == 1  # claimed but never started


class TestHungWorker:
    def test_hung_worker_loses_lease_and_discards_its_outcome(self, tmp_path):
        """A worker that stalls past the TTL wakes to find the job gone."""
        service = make_service(tmp_path, lease_ttl=0.05)
        record, _ = service.submit(dict(JOB))
        stop = threading.Event()

        def reap_loop():
            while not stop.is_set():
                service.reap()
                time.sleep(0.01)

        reaper = threading.Thread(target=reap_loop, daemon=True)
        reaper.start()
        try:
            # Hang 0.5s (10x the TTL) before failing: the reaper re-queues
            # the job mid-hang, so the woken worker's failure must be
            # fenced off by lost ownership, not recorded on the record.
            with step_bomb(
                ConcurrentFaultSimulator,
                after_steps=10,
                exception=ChaosError,
                hang_seconds=0.5,
            ):
                service.process_once()
        finally:
            stop.set()
            reaper.join(timeout=5)

        refreshed = service.status(record.job_id)
        assert refreshed.state == "queued"
        assert service.metrics.lease_losses == 1
        # The hung attempt's ChaosError was discarded: only the reaper's
        # lease note is in the history.
        assert all(entry["kind"] == "lease" for entry in refreshed.error_history)

        service.reap()  # push if the expiry left it outside the queue
        assert service.drain() == 1
        finished = service.status(record.job_id)
        assert finished.state == "done", finished.error
        assert finished.attempts == 2
        assert finished.resumed_from_cycle == 8
        assert service.result_bytes(record.job_id) == direct_blob(5)


# ----------------------------------------------------------------------
# classified retries, backoff, dead-lettering, resurrection
# ----------------------------------------------------------------------


class TestRetryAndDeadLetter:
    def test_classifier(self):
        assert classify_failure(OSError("disk")) == "transient"
        assert classify_failure(ChaosError("injected")) == "transient"
        from repro.robust.checkpoint import CheckpointError

        assert classify_failure(CheckpointError("torn")) == "transient"
        from repro.circuit.netlist import NetlistError

        assert classify_failure(NetlistError("bad gate")) == "permanent"
        assert classify_failure(SpecError("bad spec")) == "permanent"
        # Unknown exceptions fail fast: retries must not hide real bugs.
        assert classify_failure(ValueError("boom")) == "permanent"

    def test_transient_failure_retries_and_resumes(self, tmp_path):
        service = make_service(tmp_path, retry_backoff_base=0.0)
        record, _ = service.submit(dict(JOB))
        with step_bomb(ConcurrentFaultSimulator, after_steps=10, exception=OSError):
            assert service.process_once() == 1  # handled, not propagated
        refreshed = service.status(record.job_id)
        assert refreshed.state == "queued"
        assert refreshed.attempts == 1
        assert refreshed.next_retry_at is not None
        assert refreshed.error_history[0]["kind"] == "transient"

        # The backoff re-entry point is the reaper, not an immediate push.
        assert service.drain() == 0  # not in the queue yet
        assert service.reap() >= 1
        with step_bomb(ConcurrentFaultSimulator, after_steps=10_000) as counter:
            assert service.drain() == 1
        finished = service.status(record.job_id)
        assert finished.state == "done", finished.error
        assert finished.attempts == 2
        assert finished.resumed_from_cycle == 8
        assert counter["calls"] == 40 - 8
        assert service.result_bytes(record.job_id) == direct_blob(5)
        assert service.metrics_snapshot()["resilience"]["retries"] == 1

    def test_backoff_delays_grow_and_are_respected(self, tmp_path):
        service = make_service(tmp_path, retry_backoff_base=30.0, max_attempts=5)
        record, _ = service.submit(dict(JOB))
        with step_bomb(ConcurrentFaultSimulator, after_steps=0, exception=OSError):
            service.process_once()
        refreshed = service.status(record.job_id)
        assert refreshed.next_retry_at > time.time() + 15.0
        # Backoff in the future: the reaper must NOT re-queue it yet.
        assert service.reap() == 0
        assert service.drain() == 0

    def test_exhausted_attempts_dead_letter_with_history(self, tmp_path):
        service = make_service(tmp_path, retry_backoff_base=0.0, max_attempts=2)
        record, _ = service.submit(dict(JOB))
        with step_bomb(ConcurrentFaultSimulator, after_steps=0, exception=OSError):
            service.process_once()  # attempt 1 -> queued with backoff
            service.reap()  # backoff (0s) elapsed -> re-queued
            service.process_once()  # attempt 2 -> budget spent -> dead
        dead = service.status(record.job_id)
        assert dead.state == "dead"
        assert dead.attempts == 2
        assert dead.finished_at is not None
        assert len(dead.error_history) == 2
        assert [entry["attempt"] for entry in dead.error_history] == [1, 2]
        assert service.metrics_snapshot()["jobs"]["dead_lettered"] == 1
        # Terminal: neither recover() nor the reaper touches it.
        assert service.recover() == 0
        assert service.reap() == 0

    def test_per_job_max_attempts_overrides_service_default(self, tmp_path):
        service = make_service(tmp_path, retry_backoff_base=0.0, max_attempts=3)
        record, _ = service.submit({**JOB, "max_attempts": 1})
        with step_bomb(ConcurrentFaultSimulator, after_steps=0, exception=OSError):
            service.process_once()
        assert service.status(record.job_id).state == "dead"

    def test_retry_job_resurrects_dead_job(self, tmp_path):
        service = make_service(tmp_path, retry_backoff_base=0.0, max_attempts=1)
        record, _ = service.submit(dict(JOB))
        with step_bomb(ConcurrentFaultSimulator, after_steps=0, exception=OSError):
            service.process_once()
        assert service.status(record.job_id).state == "dead"

        assert service.retry_job(record.job_id)
        reborn = service.status(record.job_id)
        assert reborn.state == "queued"
        assert reborn.attempts == 0
        assert reborn.error_history  # the audit trail survives
        assert service.drain() == 1
        assert service.status(record.job_id).state == "done"
        assert service.result_bytes(record.job_id) == direct_blob(5)
        assert service.metrics_snapshot()["jobs"]["resurrected"] == 1

    def test_retry_job_resumes_sharded_checkpoints(self, tmp_path):
        from repro.campaign import Campaign, execute
        from repro.robust.budget import Budget

        service = make_service(tmp_path, retry_backoff_base=0.0, max_attempts=1)
        record, _ = service.submit({**JOB, "jobs": 2})
        with step_bomb(ConcurrentFaultSimulator, after_steps=0, exception=OSError):
            service.process_once()
        assert service.status(record.job_id).state == "dead"
        # What a dead attempt that got 8 cycles in leaves behind: one
        # checkpoint per shard under the job's checkpoint path.
        circuit = load("s27")
        execute(
            Campaign(
                circuit,
                random_sequence(circuit, 40, seed=5),
                "csim-MV",
                jobs=2,
                budget=Budget(max_cycles=8),
                checkpoint_path=service._checkpoint_path(record.job_id),
                checkpoint_every=4,
            )
        )

        assert service.retry_job(record.job_id)
        assert service.drain() == 1
        finished = service.status(record.job_id)
        assert finished.state == "done", finished.error
        assert finished.resumed_from_cycle == 8
        assert service.result_bytes(record.job_id) == direct_blob(5)

    def test_retry_job_refuses_non_terminal_states(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit(dict(JOB))
        assert not service.retry_job(record.job_id)  # queued
        assert not service.retry_job("job-999999")  # missing
        service.drain()
        assert not service.retry_job(record.job_id)  # done

    def test_requeue_dead_resurrects_every_dead_job(self, tmp_path):
        service = make_service(tmp_path, retry_backoff_base=0.0, max_attempts=1)
        records = [service.submit({**JOB, "seed": seed})[0] for seed in (5, 6)]
        with step_bomb(ConcurrentFaultSimulator, after_steps=0, exception=OSError):
            service.drain()
        assert all(service.status(r.job_id).state == "dead" for r in records)
        assert service.requeue_dead() == 2
        assert service.drain() == 2
        assert all(service.status(r.job_id).state == "done" for r in records)

    def test_permanent_failure_fails_fast_on_attempt_one(self, tmp_path):
        # cache_results=False defers spec resolution to execution time (a
        # caching submit resolves eagerly and 400s a bad netlist instead).
        service = make_service(tmp_path, max_attempts=5, cache_results=False)
        record, _ = service.submit({"netlist": "this is not a netlist"})
        assert service.process_once() == 1
        failed = service.status(record.job_id)
        assert failed.state == "failed"
        assert failed.attempts == 1  # no retry burned on a deterministic bug
        assert failed.error_history[0]["kind"] == "permanent"

    def test_error_message_is_clipped(self, tmp_path):
        record = JobRecord(job_id="job-000001", spec={})
        record.attempts = 1
        record.note_error("x" * 10_000, kind="transient")
        assert len(record.error) <= ERROR_MAX_CHARS
        assert "[10000 chars]" in record.error
        for _ in range(20):
            record.note_error("again", kind="transient")
        assert len(record.error_history) == 8
        assert record.error_history_dropped == 13


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_expired_deadline_truncates_and_skips_cache(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit({**JOB, "deadline_seconds": 0.0})
        assert service.drain() == 1
        finished = service.status(record.job_id)
        assert finished.state == "done"
        document = json.loads(service.result_bytes(record.job_id))
        assert document["truncated"] is True
        # Truncated results never enter the cache: a duplicate simulates.
        duplicate, _ = service.submit(dict(JOB))
        assert not duplicate.cache_hit

    def test_generous_deadline_changes_nothing(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit({**JOB, "deadline_seconds": 3600.0})
        service.drain()
        document = json.loads(service.result_bytes(record.job_id))
        assert document["truncated"] is False
        assert service.result_bytes(record.job_id) == direct_blob(5)

    def test_deadline_composes_with_cycle_budget(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit(
            {**JOB, "max_cycles": 10, "deadline_seconds": 3600.0}
        )
        service.drain()
        document = json.loads(service.result_bytes(record.job_id))
        assert document["truncated"] is True  # the stricter axis won

    def test_bad_deadline_rejected_at_submit(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(SpecError):
            service.submit({**JOB, "deadline_seconds": -1.0})
        with pytest.raises(SpecError):
            service.submit({**JOB, "max_attempts": 0})


# ----------------------------------------------------------------------
# drain
# ----------------------------------------------------------------------


class TestDrain:
    def test_draining_service_refuses_submissions(self, tmp_path):
        service = make_service(tmp_path)
        service.begin_drain()
        with pytest.raises(ServiceDraining):
            service.submit(dict(JOB))

    def test_draining_service_stops_claiming(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit(dict(JOB))
        service.begin_drain()
        assert service.process_once() == 0
        assert service.status(record.job_id).state == "queued"  # durable hand-off

    def test_health_reports_draining_and_saturation(self, tmp_path):
        service = make_service(tmp_path, queue_limit=4)
        service.submit(dict(JOB))
        health = service.health()
        assert health["status"] == "ok"
        assert health["queue_saturation"] == 0.25
        assert "reaper_last_run" in health
        service.begin_drain()
        assert service.health()["status"] == "draining"
        assert service.health()["draining"] is True

    def test_worker_pool_retires_on_drain(self, tmp_path):
        service = make_service(tmp_path, workers=2)
        service.start()
        try:
            assert service.health()["workers_alive"] == 2
            service.begin_drain()
            assert service.await_drained(timeout=10.0)
        finally:
            service.stop()


# ----------------------------------------------------------------------
# the reaper thread and lease observability
# ----------------------------------------------------------------------


class TestReaperThread:
    def test_background_reaper_recovers_without_manual_reap(self, tmp_path):
        service = make_service(
            tmp_path, lease_ttl=0.05, retry_backoff_base=0.0
        )
        record, _ = service.submit(dict(JOB))
        with step_bomb(ConcurrentFaultSimulator, after_steps=10):
            with pytest.raises(KeyboardInterrupt):
                service.process_once()
        service.start()  # workers=0: only the reaper runs
        try:
            deadline = time.time() + 10.0
            while time.time() < deadline:
                if service.status(record.job_id).state == "queued":
                    break
                time.sleep(0.02)
            refreshed = service.status(record.job_id)
            assert refreshed.state == "queued"
        finally:
            service.stop()
        assert service.metrics.reaper_runs >= 1
        assert service.drain() == 1
        assert service.result_bytes(record.job_id) == direct_blob(5)

    def test_checkpoint_mtime_counts_as_heartbeat(self, tmp_path):
        """A fresh checkpoint keeps an expired-lease job off the reap list."""
        service = make_service(tmp_path, lease_ttl=0.2)
        record, _ = service.submit(dict(JOB))
        with step_bomb(ConcurrentFaultSimulator, after_steps=10):
            with pytest.raises(KeyboardInterrupt):
                service.process_once()
        # Force the lease to look ancient but touch the checkpoint now:
        # the mtime rule must extend the lease instead of expiring it.
        import os

        running = service.status(record.job_id)
        running.lease_expires_at = time.time() - 100.0
        service.store.save(running)
        os.utime(service._checkpoint_path(record.job_id))
        assert service.reap() == 0
        assert service.status(record.job_id).state == "running"
        assert service.status(record.job_id).lease_expires_at > time.time()

    def test_lease_stats_track_active_leases(self, tmp_path):
        service = make_service(tmp_path, lease_ttl=30.0)
        record, _ = service.submit(dict(JOB))
        with step_bomb(ConcurrentFaultSimulator, after_steps=10):
            with pytest.raises(KeyboardInterrupt):
                service.process_once()
        snapshot = service.metrics_snapshot()
        assert snapshot["leases"]["active"] == 1
        assert snapshot["leases"]["oldest_age_seconds"] >= 0.0
        assert service.status(record.job_id).lease_owner is not None

    def test_recover_clears_stale_leases(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit(dict(JOB))
        with step_bomb(ConcurrentFaultSimulator, after_steps=10):
            with pytest.raises(KeyboardInterrupt):
                service.process_once()
        reborn = make_service(tmp_path)
        assert reborn.recover() == 1
        refreshed = reborn.status(record.job_id)
        assert refreshed.state == "queued"
        assert refreshed.lease_owner is None


# ----------------------------------------------------------------------
# prometheus exposition of the new families
# ----------------------------------------------------------------------


class TestPrometheus:
    def test_resilience_families_render_and_parse(self, tmp_path):
        service = make_service(tmp_path, retry_backoff_base=0.0, max_attempts=1)
        service.submit(dict(JOB))
        with step_bomb(ConcurrentFaultSimulator, after_steps=0, exception=OSError):
            service.drain()
        text = render_prometheus(service.metrics_snapshot())
        metrics = parse_prometheus_text(text)
        assert metrics["repro_dead_lettered_total"] == [({}, 1.0)]
        assert metrics["repro_retries_total"] == [({}, 0.0)]
        assert metrics["repro_draining"] == [({}, 0.0)]
        assert metrics["repro_leases_active"] == [({}, 0.0)]
        assert metrics["repro_queue_saturation"] == [({}, 0.0)]
        events = dict(
            (labels["event"], value)
            for labels, value in metrics["repro_lease_events_total"]
        )
        assert set(events) == {"expired", "renewed", "lost"}
        assert "repro_reaper_last_run_seconds" in metrics
        assert ({"state": "dead_lettered"}, 1.0) in metrics["repro_jobs_total"]

    def test_draining_gauge_flips(self, tmp_path):
        service = make_service(tmp_path)
        service.begin_drain()
        metrics = parse_prometheus_text(
            render_prometheus(service.metrics_snapshot())
        )
        assert metrics["repro_draining"] == [({}, 1.0)]
