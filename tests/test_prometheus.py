"""Prometheus exposition: rendering, parsing, and HTTP content negotiation.

The contract: ``GET /metrics`` keeps returning the JSON snapshot by
default (byte-compatible with what pre-exposition clients parse), while
``Accept: text/plain`` returns the standard text exposition rendered
*from that same snapshot* — the two representations cannot drift because
one is derived from the other.
"""

import json
import threading
import urllib.request

import pytest

from repro import package_version
from repro.obs.prometheus import parse_prometheus_text, render_prometheus
from repro.serve import FaultSimService, ServeConfig, make_server

SNAPSHOT = {
    "version": "1.2.3",
    "started_at": 1000.0,
    "uptime_seconds": 12.5,
    "jobs": {"submitted": 4, "completed": 3, "failed": 1},
    "queue": {"depth": 2, "capacity": 256},
    "cache": {"hits": 3, "misses": 1, "hit_rate": 0.75},
    "batch": {"size_counts": {"1": 2, "4": 1}},
    "latency": {
        "simulate": {
            "count": 3,
            "sum_seconds": 0.6,
            "buckets": {"0.1": 1, "1.0": 2, "+Inf": 0},
        }
    },
    "counters": {
        "cycles": 10,
        "good_evaluations": 100,
        "fault_evaluations": 500,
        "element_visits": 700,
        "events": 50,
        "gates_scheduled": 60,
    },
}


class TestRender:
    def test_round_trips_through_parser(self):
        metrics = parse_prometheus_text(render_prometheus(SNAPSHOT))
        assert metrics["repro_build_info"] == [({"version": "1.2.3"}, 1.0)]
        assert metrics["repro_uptime_seconds"] == [({}, 12.5)]
        assert ({"state": "completed"}, 3.0) in metrics["repro_jobs_total"]
        assert metrics["repro_queue_depth"] == [({}, 2.0)]
        assert ({"outcome": "hit"}, 3.0) in metrics["repro_cache_lookups_total"]
        assert metrics["repro_cache_hit_rate"] == [({}, 0.75)]
        kinds = {labels["kind"]: value for labels, value in
                 metrics["repro_engine_work_total"]}
        assert kinds["fault_evaluations"] == 500.0
        assert kinds["cycles"] == 10.0

    def test_histograms_are_cumulative_with_inf(self):
        metrics = parse_prometheus_text(render_prometheus(SNAPSHOT))
        batch = {labels["le"]: value for labels, value in
                 metrics["repro_batch_size_bucket"]}
        assert batch["1.0"] == 2.0
        assert batch["4.0"] == 3.0  # cumulative, not per-bucket
        assert batch["+Inf"] == 3.0
        assert metrics["repro_batch_size_count"] == [({}, 3.0)]
        assert metrics["repro_batch_size_sum"] == [({}, 6.0)]
        phase = {labels["le"]: value for labels, value in
                 metrics["repro_phase_seconds_bucket"]
                 if labels["phase"] == "simulate"}
        assert phase["0.1"] == 1.0
        assert phase["1.0"] == 3.0
        assert phase["+Inf"] == 3.0

    def test_empty_snapshot_still_valid(self):
        text = render_prometheus({})
        metrics = parse_prometheus_text(text)
        assert metrics["repro_build_info"] == [({}, 1.0)]

    def test_label_escaping(self):
        text = render_prometheus({"version": 'v"1\\x'})
        metrics = parse_prometheus_text(text)
        assert metrics["repro_build_info"] == [({"version": 'v"1\\x'}, 1.0)]


class TestParser:
    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus_text("this is not a metric line\n")

    def test_rejects_malformed_type(self):
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus_text("# TYPE repro_x bogus\n")

    def test_inf_value(self):
        metrics = parse_prometheus_text('m_bucket{le="+Inf"} 3\n')
        assert metrics["m_bucket"] == [({"le": "+Inf"}, 3.0)]


@pytest.fixture
def serving(tmp_path):
    service = FaultSimService(
        ServeConfig(state_dir=str(tmp_path / "state"), workers=1)
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    yield service, server.server_address[1]
    service.stop()
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _get(port, path, accept=None):
    headers = {"Accept": accept} if accept else {}
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                     headers=headers)
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, dict(response.headers), response.read()


class TestHttpNegotiation:
    def test_default_is_json_snapshot(self, serving):
        service, port = serving
        status, headers, body = _get(port, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        snapshot = json.loads(body)
        for section in ("jobs", "queue", "cache", "batch", "latency", "counters"):
            assert section in snapshot
        assert snapshot["version"] == package_version()
        assert snapshot["uptime_seconds"] >= 0.0
        assert snapshot["started_at"] == pytest.approx(
            service.metrics.started_at
        )

    def test_accept_text_plain_returns_exposition(self, serving):
        _, port = serving
        status, headers, body = _get(port, "/metrics", accept="text/plain")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        metrics = parse_prometheus_text(body.decode())  # valid exposition
        assert "repro_queue_depth" in metrics
        assert "repro_jobs_total" in metrics

    def test_text_form_tracks_executed_work(self, serving):
        _, port = serving
        payload = json.dumps(
            {"circuit": "s27", "random_patterns": 16, "seed": 3}
        ).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/jobs",
            data=payload,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            job_id = json.loads(response.read())["job_id"]
        import time

        deadline = time.time() + 30
        while time.time() < deadline:
            _, _, body = _get(port, f"/jobs/{job_id}")
            if json.loads(body)["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        _, _, text_body = _get(port, "/metrics", accept="text/plain")
        _, _, json_body = _get(port, "/metrics")
        metrics = parse_prometheus_text(text_body.decode())
        snapshot = json.loads(json_body)
        kinds = {labels["kind"]: value for labels, value in
                 metrics["repro_engine_work_total"]}
        assert kinds["cycles"] > 0
        # The text form is a rendering of the same snapshot.
        assert kinds["cycles"] == float(snapshot["counters"]["cycles"])
        states = {labels["state"]: value for labels, value in
                  metrics["repro_jobs_total"]}
        assert states.get("completed", 0) >= 1
