"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest e2ebench -q

The smoke tests run every workload at a reduced size in a scratch copy of
the checkout, so the repository's own ``.bench_state`` is never touched.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SMOKE_SECONDS = "1"


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A scratch checkout: the program, the benchmark and BENCHMARK.json."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(os.path.join(ROOT, "src"), root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, root / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root / "BENCHMARK.json")
    return root


def bench(checkout, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )


# -- seeded generators --------------------------------------------------------


@pytest.mark.parametrize("family", sorted(workloads.PLANS))
def test_plans_repeat_for_a_seed_and_differ_across_seeds(family):
    plan = workloads.PLANS[family]
    assert json.dumps(plan(7, 12)) == json.dumps(plan(7, 12))
    assert json.dumps(plan(7, 12)) != json.dumps(plan(8, 12))


def test_service_plan_fixes_the_distinct_work():
    import refs

    for seed in (1, 2, 3):
        plan = workloads.service_plan(seed, workloads.NOMINAL_SECONDS)
        assert len(plan["bursts"]) == 30
        assert len(refs.requested_specs(plan)) == 50
        assert sum(len(burst["queries"]) for burst in plan["bursts"]) == 40
        assert plan["bursts"][0]["queries"][0] == {"warmup": True}


# -- percentiles ----------------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(measure.InsufficientSamples):
        measure.percentile(list(range(19)), 0.5)
    assert measure.percentile(list(range(1, 21)), 0.5) == 10
    with pytest.raises(measure.InsufficientSamples):
        measure.percentile(list(range(99)), 0.9)
    assert measure.percentile(list(range(1, 101)), 0.9) == 90
    assert measure.maybe_percentile([1.0] * 5, 0.5) is None


def test_spread_is_interquartile_distance_over_median():
    values = [float(v) for v in range(1, 11)]
    assert measure.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# -- host-speed correction -------------------------------------------------------


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_host_clock_scales_each_split_by_the_probe(monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_PROBE_S)
    previous = signal.getsignal(signal.SIGALRM)
    clock = speed.HostClock(period=0.005)
    with clock.running():
        with clock.region() as setup:
            busy(0.05)
        assert clock.split() == (pytest.approx(setup.seconds), pytest.approx(setup.seconds / 2))
        with clock.region() as first:
            busy(0.1)
        busy(0.02)  # between regions: not timed
        with clock.region() as second:
            busy(0.1)
        wall, scaled = clock.split()
    assert len(clock.probes) > 10  # the alarm probed inside the regions
    assert wall == pytest.approx(first.seconds + second.seconds)
    assert scaled == pytest.approx(wall / 2)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_host_clock_leaves_probe_time_out_of_the_region(monkeypatch):
    def slow_probe() -> float:
        busy(0.002)
        return speed.REFERENCE_PROBE_S

    monkeypatch.setattr(speed, "probe", slow_probe)
    clock = speed.HostClock(period=0.005)
    with clock.running():
        before = len(clock.probes)
        started = time.perf_counter()
        with clock.region() as timed:
            busy(0.1)
        outer = time.perf_counter() - started
        inside = len(clock.probes) - before
    assert inside >= 5
    # At most one of them (a probe due at entry) ran before the region began.
    assert outer - timed.seconds >= 0.002 * (inside - 1)
    assert timed.seconds <= 0.1 + 0.005


def test_wall_clock_splits_plain_wall_time():
    clock = speed.WallClock()
    with clock.region() as timed:
        busy(0.01)
    assert clock.split() == (timed.seconds, timed.seconds)
    assert clock.split() == (0.0, 0.0)


# -- self time -------------------------------------------------------------------


def synthetic_recorder() -> layers.SpanRecorder:
    """Two operations: nested layer spans with known durations."""
    recorder = layers.SpanRecorder()

    def span(name, trace, span_id, parent, start, end):
        item = layers.Span(name, trace, span_id, parent)
        item.start, item.end = start, end
        recorder.spans.append(item)

    span("bench.campaign", "t1", "t1", None, 0.0, 10.0)
    span("concurrent.run", "t1", "a", "t1", 1.0, 9.0)
    span("concurrent.step", "t1", "b", "a", 2.0, 5.0)
    span("sim.settle", "t1", "c", "b", 3.0, 4.0)
    span("bench.query", "t2", "t2", None, 20.0, 24.0)
    span("diagnosis.diagnose", "t2", "d", "t2", 20.5, 23.0)
    span("bench.setup", "t3", "t3", None, -5.0, -1.0)
    span("circuit.load", "t3", "e", "t3", -4.0, -2.0)
    return recorder


def test_self_times_plus_other_add_up_to_run_s():
    recorder = synthetic_recorder()
    run_s = 14.0
    table = layers.self_time_table(recorder.records(), run_s)
    assert table["concurrent"] == pytest.approx(7.0)
    assert table["sim"] == pytest.approx(1.0)
    assert table["diagnosis"] == pytest.approx(2.5)
    assert table["circuit"] == 0.0  # set-up is not run time
    assert table["other"] == pytest.approx(2.0 + 1.5)  # the roots' own self time
    assert sum(table.values()) == pytest.approx(run_s)


def test_written_spans_stitch_with_the_repo_reader(tmp_path):
    from repro.obs.span import read_spans, stitch_trace

    recorder = synthetic_recorder()
    recorder.write(str(tmp_path))
    spans = read_spans(str(tmp_path))
    (root,) = stitch_trace(spans, "t1")
    assert root.name == "bench.campaign"
    assert root.self_time() == pytest.approx(2.0)
    run = root.children[0]
    assert run.self_time() == pytest.approx(5.0)
    assert run.children[0].self_time() == pytest.approx(2.0)


def test_span_metrics_count_outermost_calls_only():
    recorder = synthetic_recorder()
    values = layers.span_metrics(recorder.spans)
    assert values["concurrent.run_s"] == pytest.approx(8.0)  # the step is inside the run
    assert values["sim.good_calls"] == 1
    assert values["circuit.load_s"] == pytest.approx(2.0)  # set-up spans count here


# -- ranking checks --------------------------------------------------------------


def ranking(*candidates) -> bytes:
    return json.dumps({"candidates": [
        {"site": list(site), "score": score, "exact": exact,
         "matched": matched, "missed": missed, "extra": extra}
        for site, score, exact, matched, missed, extra in candidates
    ]}).encode()


def test_check_ranking_accepts_the_class_and_rejects_others():
    a, b, c = (1, -1, "SA0"), (2, -1, "SA0"), (3, 0, "SA1")
    signatures = {a: frozenset({(1, 0), (2, 0)}), b: frozenset({(1, 0), (2, 0)}),
                  c: frozenset({(1, 0)})}
    observed = [(1, 0), (2, 0)]
    good = ranking((b, 1.0, True, 2, 0, 0), (a, 1.0, True, 2, 0, 0))
    assert workloads.check_ranking(good, a, observed, True, signatures, 10) is None
    wrong = ranking((c, 0.5, False, 1, 1, 0))
    assert workloads.check_ranking(wrong, a, observed, True, signatures, 10) is not None
    partial = ranking((c, 1.0, True, 1, 0, 0), (a, 0.5, False, 1, 0, 1))
    assert workloads.check_ranking(partial, a, [(1, 0)], False, signatures, 10) is None
    missing = ranking((c, 1.0, True, 1, 0, 0))
    assert workloads.check_ranking(missing, a, [(1, 0)], False, signatures, 10) is not None


# -- work counts -----------------------------------------------------------------


def test_work_counts_are_recorded_only_by_a_correct_run(tmp_path):
    import run

    path = str(tmp_path / "counts" / "coverage-csim-seed1-x12.json")
    assert run.check_counts(path, {"work": 5}, record=False) is None
    assert not os.path.exists(path)
    assert run.check_counts(path, {"work": 7}, record=True) is None
    assert run.check_counts(path, {"work": 7}, record=False) is None
    assert run.check_counts(path, {"work": 5}, record=True) is not None


# -- the benchmark contract ------------------------------------------------------


def test_benchmark_json_names_what_the_runner_prints():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [item["name"] for item in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {item["name"]: item["unit"] for item in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [item["name"] for item in spec["per_layer"]] == list(layers.PER_LAYER_METRICS)
    for item in spec["per_layer"]:
        assert item["unit"] == layers.metric_unit(item["name"])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = bench(tmp_path, "--workload", "coverage-csim", "--seed", "1",
                 "--seconds", "12", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_every_workload_is_correct(checkout, name):
    done = bench(checkout, "--workload", name, "--seed", "3",
                 "--seconds", SMOKE_SECONDS, "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "run_s", "peak_rss_mb"}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_smoke_counts_repeat_for_a_seed(checkout):
    """A second run of one seed compares its work counts with the first's."""
    for _ in range(2):
        done = bench(checkout, "--workload", "service-replay", "--seed", "5",
                     "--seconds", SMOKE_SECONDS, "--trace", "0")
        assert last_json(done.stdout)["correct"], done.stdout
    counts = f"service-replay-seed5-x{SMOKE_SECONDS}.json"
    caches = [name for name in os.listdir(checkout / ".bench_state") if name.startswith("cache-")]
    assert len(caches) == 1
    assert os.path.exists(checkout / ".bench_state" / caches[0] / "counts" / counts)


def test_smoke_traced_run_adds_up_and_renders(checkout):
    done = bench(checkout, "--workload", "service-replay", "--seed", "3",
                 "--seconds", SMOKE_SECONDS, "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"], done.stdout
    metrics = {name: item["value"] for name, item in result["metrics"].items()}
    assert set(metrics) == set(layers.PER_LAYER_METRICS)
    self_total = sum(metrics[name] for name in layers.SELF_METRICS)
    assert self_total == pytest.approx(metrics["trace.run_s"], rel=1e-9)
    assert metrics["serve.submit_s"] > 0 and metrics["concurrent.run_s"] > 0
    inspect = subprocess.run(
        [sys.executable, "-m", "repro", "inspect", ".bench_traces/service-replay-seed3"],
        cwd=checkout, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
    )
    assert inspect.returncode == 0, inspect.stderr
    assert "bench." in inspect.stdout
