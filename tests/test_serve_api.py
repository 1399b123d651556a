"""HTTP end-to-end tests for the serve REST API.

Each test boots a real :class:`ServeHTTPServer` on a loopback port and
talks to it with ``urllib`` — the same client path the CI e2e script and
the README curl walkthrough exercise.  The headline assertions mirror the
subsystem's contract: results fetched over HTTP are bit-identical to
direct in-process runs, duplicates are served from the cache, and a full
queue answers 429 with a Retry-After header.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.circuit.library import load
from repro.harness.runner import run_stuck_at
from repro.patterns.random_gen import random_sequence
from repro.serve import FaultSimService, ServeConfig, make_server, serialize_result


class Client:
    """A minimal JSON client over urllib."""

    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def request(self, method, path, payload=None):
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            f"{self.base}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, payload=None):
        return self.request("POST", path, payload)

    def post_raw(self, path, body):
        request = urllib.request.Request(
            f"{self.base}{path}",
            data=body.encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def get_json(self, path):
        status, _, body = self.get(path)
        return status, json.loads(body)

    def post_json(self, path, payload=None):
        status, _, body = self.post(path, payload)
        return status, json.loads(body)

    def wait_done(self, job_id, timeout=30.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, record = self.get_json(f"/jobs/{job_id}")
            assert status == 200
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not finish in {timeout}s")


@pytest.fixture
def serving(tmp_path):
    """A service with one background worker behind a live HTTP server."""
    service = FaultSimService(
        ServeConfig(state_dir=str(tmp_path / "state"), workers=1)
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    yield service, Client(server.server_address[1])
    service.stop()
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture
def backlogged(tmp_path):
    """A tiny-queue service with NO workers, so the queue stays full."""
    service = FaultSimService(
        ServeConfig(state_dir=str(tmp_path / "state"), workers=0, queue_limit=2)
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield service, Client(server.server_address[1])
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


JOB = {"circuit": "s27", "random_patterns": 32, "seed": 11}


class TestLifecycle:
    def test_submit_poll_fetch_bit_identical(self, serving):
        _, client = serving
        status, record = client.post_json("/jobs", dict(JOB))
        assert status == 201
        assert record["state"] in ("queued", "running", "done")
        finished = client.wait_done(record["job_id"])
        assert finished["state"] == "done"

        status, headers, blob = client.get(f"/jobs/{record['job_id']}/result")
        assert status == 200
        assert headers["Content-Type"] == "application/json"

        circuit = load("s27")
        direct = run_stuck_at(circuit, random_sequence(circuit, 32, seed=11), "csim-MV")
        assert blob == serialize_result(direct, circuit)

    def test_duplicate_submission_hits_cache(self, serving, tmp_path):
        service, client = serving
        status, first = client.post_json("/jobs", dict(JOB))
        assert status == 201
        client.wait_done(first["job_id"])

        status, duplicate = client.post_json("/jobs", dict(JOB))
        assert status == 201
        assert duplicate["state"] == "done"  # finished at submit time
        assert duplicate["cache_hit"]

        _, _, blob_a = client.get(f"/jobs/{first['job_id']}/result")
        _, _, blob_b = client.get(f"/jobs/{duplicate['job_id']}/result")
        assert blob_a == blob_b
        status, metrics = client.get_json("/metrics")
        assert metrics["jobs"]["simulated"] == 1
        assert metrics["cache"]["hits"] == 1

    def test_idempotency_key_returns_200_existing(self, serving):
        _, client = serving
        status, first = client.post_json("/jobs", dict(JOB, idempotency_key="k1"))
        assert status == 201
        status, again = client.post_json("/jobs", dict(JOB, idempotency_key="k1"))
        assert status == 200
        assert again["job_id"] == first["job_id"]

    def test_result_409_until_done_then_200(self, backlogged):
        service, client = backlogged
        status, record = client.post_json("/jobs", dict(JOB))
        assert status == 201
        status, headers, _ = client.get(f"/jobs/{record['job_id']}/result")
        assert status == 409
        assert "Retry-After" in headers
        service.drain()
        status, _, _ = client.get(f"/jobs/{record['job_id']}/result")
        assert status == 200

    def test_cancel_endpoint(self, backlogged):
        _, client = backlogged
        status, record = client.post_json("/jobs", dict(JOB))
        status, cancelled = client.post_json(f"/jobs/{record['job_id']}/cancel")
        assert status == 200
        assert cancelled["state"] == "cancelled"
        # A second cancel is refused: the job is already terminal.
        status, _ = client.post_json(f"/jobs/{record['job_id']}/cancel")
        assert status == 409


class TestBackpressure:
    def test_429_with_retry_after_when_queue_full(self, backlogged):
        _, client = backlogged
        for seed in (1, 2):
            status, _ = client.post_json("/jobs", dict(JOB, seed=seed))
            assert status == 201
        status, headers, body = client.post("/jobs", dict(JOB, seed=3))
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert "full" in json.loads(body)["error"]
        status, metrics = client.get_json("/metrics")
        assert metrics["jobs"]["rejected"] == 1
        assert metrics["queue"]["depth"] == 2

    def test_429_clears_after_drain(self, backlogged):
        service, client = backlogged
        for seed in (1, 2):
            client.post_json("/jobs", dict(JOB, seed=seed))
        status, _ = client.post_json("/jobs", dict(JOB, seed=3))
        assert status == 429
        service.drain()
        status, _ = client.post_json("/jobs", dict(JOB, seed=3))
        assert status == 201


class TestErrors:
    def test_bad_payload_400(self, serving):
        _, client = serving
        for payload in ({}, {"circuit": "s27", "engine": "bogus"}, {"nope": 1}):
            status, document = client.post_json("/jobs", payload)
            assert status == 400
            assert "error" in document

    def test_malformed_json_400(self, serving):
        _, client = serving
        status, _, body = client.post_raw("/jobs", "{not json")
        assert status == 400
        assert "bad JSON" in json.loads(body)["error"]

    def test_unknown_job_404(self, serving):
        _, client = serving
        for path in ("/jobs/job-999999", "/jobs/job-999999/result"):
            status, _ = client.get_json(path)
            assert status == 404
        status, _ = client.post_json("/jobs/job-999999/cancel")
        assert status == 404

    def test_unknown_route_404(self, serving):
        _, client = serving
        status, _ = client.get_json("/nope")
        assert status == 404


class TestIntrospection:
    def test_healthz(self, serving):
        _, client = serving
        status, health = client.get_json("/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["workers_alive"] == 1
        assert health["queue_capacity"] == 256

    def test_jobs_listing(self, serving):
        _, client = serving
        status, first = client.post_json("/jobs", dict(JOB))
        client.wait_done(first["job_id"])
        status, listing = client.get_json("/jobs")
        assert status == 200
        ids = [record["job_id"] for record in listing["jobs"]]
        assert first["job_id"] in ids

    def test_metrics_shape(self, serving):
        _, client = serving
        status, record = client.post_json("/jobs", dict(JOB))
        client.wait_done(record["job_id"])
        status, metrics = client.get_json("/metrics")
        assert status == 200
        for section in ("jobs", "queue", "cache", "batch", "latency", "counters"):
            assert section in metrics
        assert metrics["latency"]["simulate"]["count"] == 1
        assert metrics["counters"]["cycles"] > 0
        assert "resilience" in metrics
        assert "leases" in metrics
        assert metrics["queue"]["saturation"] == 0.0


class TestResiliencePlane:
    def test_retry_endpoint_resurrects_dead_job(self, backlogged):
        from repro.concurrent.engine import ConcurrentFaultSimulator
        from repro.robust.chaos import step_bomb

        service, client = backlogged
        status, record = client.post_json("/jobs", {**JOB, "max_attempts": 1})
        assert status == 201
        with step_bomb(ConcurrentFaultSimulator, after_steps=0, exception=OSError):
            service.drain()
        status, dead = client.get_json(f"/jobs/{record['job_id']}")
        assert dead["state"] == "dead"
        assert dead["error_history"]

        status, reborn = client.post_json(f"/jobs/{record['job_id']}/retry")
        assert status == 200
        assert reborn["state"] == "queued"
        assert reborn["attempts"] == 0
        service.drain()
        status, _, _ = client.get(f"/jobs/{record['job_id']}/result")
        assert status == 200

    def test_retry_endpoint_refuses_live_jobs(self, backlogged):
        _, client = backlogged
        status, record = client.post_json("/jobs", dict(JOB))
        status, document = client.post_json(f"/jobs/{record['job_id']}/retry")
        assert status == 409
        assert "queued" in document["error"]
        status, _ = client.post_json("/jobs/job-999999/retry")
        assert status == 404

    def test_draining_submit_gets_503_with_retry_after(self, backlogged):
        service, client = backlogged
        service.begin_drain()
        status, headers, body = client.post("/jobs", dict(JOB))
        assert status == 503
        assert "Retry-After" in headers
        assert "draining" in json.loads(body)["error"]
        status, health = client.get_json("/healthz")
        assert health["status"] == "draining"
        assert health["draining"] is True

    def test_cancel_race_gets_410_not_500(self, backlogged, monkeypatch):
        """A record deleted between cancel and re-read answers 410."""
        service, client = backlogged
        status, record = client.post_json("/jobs", dict(JOB))
        original = service.cancel

        def cancel_then_vanish(job_id):
            outcome = original(job_id)
            service.store.delete(job_id)
            return outcome

        monkeypatch.setattr(service, "cancel", cancel_then_vanish)
        status, document = client.post_json(f"/jobs/{record['job_id']}/cancel")
        assert status == 410
        assert "removed" in document["error"]


DIAGNOSE = {
    "circuit": "s27",
    "random_patterns": 32,
    "seed": 11,
    "failures": [[5, 0]],
}


class TestDiagnoseEndpoint:
    def test_miss_builds_then_hit_serves_over_http(self, serving):
        _, client = serving
        status, headers, body = client.post("/diagnose", dict(DIAGNOSE))
        assert status == 202
        assert headers.get("Retry-After") == "1"
        document = json.loads(body)
        assert document["status"] == "building"
        record = client.wait_done(document["job"])
        assert record["state"] == "done"
        status, _, body = client.post("/diagnose", dict(DIAGNOSE))
        assert status == 200
        report = json.loads(body)
        assert report["schema"] == "repro-diagnosis/1"
        assert report["candidates"]
        # The raw body is the canonical serializer's output, verbatim.
        assert body.endswith(b"\n")

    def test_bad_queries_get_400(self, serving):
        _, client = serving
        for payload in (
            {"circuit": "s27"},
            dict(DIAGNOSE, failures=[[5]]),
            dict(DIAGNOSE, top=0),
            dict(DIAGNOSE, dictionary="tiny"),
        ):
            status, _, body = client.post("/diagnose", payload)
            assert status == 400
            assert "error" in json.loads(body)

    def test_queue_full_gets_429(self, backlogged):
        _, client = backlogged
        for index in range(2):
            status, _, _ = client.post(
                "/jobs", {"circuit": "s27", "random_patterns": 4, "seed": index}
            )
            assert status == 201
        status, headers, _ = client.post("/diagnose", dict(DIAGNOSE))
        assert status == 429
        assert headers.get("Retry-After") == "1"


class TestProcess:
    def test_sigint_stops_a_server_started_with_sigint_ignored(self, tmp_path):
        """A non-interactive shell starts background jobs with SIGINT
        ignored; ``kill -INT`` must still stop ``repro serve`` (the CI
        jobs stop their servers that way)."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        # An ignored disposition survives exec, as it does for the shell's job.
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "0",
                 "--state-dir", str(tmp_path / "state")],
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            )
        finally:
            signal.signal(signal.SIGINT, previous)
        try:
            banner = process.stderr.readline().decode()
            assert "repro serve:" in banner
            port = int(banner.split("http://127.0.0.1:")[1].split()[0])
            assert Client(port).get("/healthz")[0] == 200  # serving now
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stderr.close()
