"""Observability layer: tracer parity, counter reconciliation, exporters.

Three invariants anchor the telemetry subsystem:

* attaching no tracer — or the no-op :class:`Tracer` — leaves an engine's
  detections and work counters byte-identical to the seed behaviour;
* a :class:`RecordingTracer`'s totals reconcile *exactly* with the
  :class:`repro.result.WorkCounters` the run reports, for every engine,
  because the hook vocabulary mirrors the counters increment for
  increment;
* the exporters (JSONL trace, JSON metrics, profile report) round-trip
  the recorded data without loss.
"""

import json
from collections import Counter

import pytest

from repro import (
    CSIM,
    CSIM_MV,
    ConcurrentEventFaultSimulator,
    ConcurrentFaultSimulator,
    load_circuit,
)
from repro.baselines.serial import simulate_serial
from repro.cli import main
from repro.concurrent.options import SimOptions
from repro.concurrent.transition_engine import TransitionFaultSimulator
from repro.harness.runner import compare_engines, run_stuck_at, run_transition
from repro.harness.tables import table6
from repro.obs import (
    NULL_TRACER,
    RecordingTracer,
    Tracer,
    metrics_summary,
    profile_report,
    read_jsonl_trace,
    write_jsonl_trace,
    write_metrics_json,
)
from repro.patterns import random_sequence
from repro.sim.delays import typed_delays

CONCURRENT_VARIANTS = ("csim", "csim-V", "csim-M", "csim-MV")


@pytest.fixture(scope="module")
def s27():
    return load_circuit("s27")


@pytest.fixture(scope="module")
def s298():
    return load_circuit("s298", scale=0.25)


def _tests(circuit, length=60, seed=3):
    return random_sequence(circuit, length, seed=seed)


PARITY_VARIANTS = CONCURRENT_VARIANTS + ("csim-T", "csim-TV")


def _parity_run(circuit, tests, variant, path, record=False):
    """Run *variant* with no tracer (``"none"``), ``NULL_TRACER``
    (``"null"``), a ``RecordingTracer`` (``"recording"``), the sanitizer
    armed (``"sanitize"``) or the given tracer; returns (result, tracer)."""
    tracer = {"none": None, "null": NULL_TRACER, "sanitize": None}.get(path, path)
    if path == "recording":
        tracer = RecordingTracer()
    options = SimOptions(
        split_lists="V" in variant,
        use_macros="M" in variant,
        sanitize=path == "sanitize",
    )
    if variant.startswith("csim-T"):
        simulator = TransitionFaultSimulator(circuit, options=options, tracer=tracer)
    else:
        simulator = ConcurrentFaultSimulator(
            circuit, options=options, tracer=tracer, record_responses=record
        )
    return simulator.run(tests), tracer


class TestNoOpParity:
    """No tracer, NULL_TRACER and the Tracer base class are all free, and
    a recording or sanitized run settles through the same kernel."""

    @pytest.mark.parametrize("tracer", [None, NULL_TRACER, Tracer()])
    def test_csim_mv_unchanged(self, s27, tracer):
        tests = _tests(s27)
        baseline = ConcurrentFaultSimulator(s27, options=CSIM_MV).run(tests)
        traced = ConcurrentFaultSimulator(
            s27, options=CSIM_MV, tracer=tracer
        ).run(tests)
        assert traced.detected == baseline.detected
        assert traced.potentially_detected == baseline.potentially_detected
        assert traced.counters == baseline.counters

    @pytest.mark.parametrize(
        "variant,record",
        [(variant, False) for variant in PARITY_VARIANTS] + [("csim-MV", True)],
    )
    def test_one_kernel_on_every_path(self, s298, variant, record):
        """Untraced, no-op-traced, recording and sanitized runs of every
        variant settle through one kernel and agree on every output."""
        tests = _tests(s298)
        runs = {
            path: _parity_run(s298, tests, variant, path, record)
            for path in ("none", "null", "recording", "sanitize")
        }
        reference = runs["none"][0]
        for result, _ in runs.values():
            assert result.detected == reference.detected
            assert result.potentially_detected == reference.potentially_detected
            assert result.responses == reference.responses
            assert result.counters == reference.counters
            assert result.memory.peak_elements == reference.memory.peak_elements
        assert runs["recording"][1].totals == reference.counters

    def test_silent_tracer_gets_no_per_gate_hooks(self, s298):
        """A tracer that records nothing hears every cycle but no gate."""

        class Silent(Tracer):
            def __init__(self):
                self.calls = Counter()

            def cycle_end(self, cycle, **stats):
                self.calls["cycle_end"] += 1

            def _per_gate(self, *args, **kwargs):
                self.calls["per-gate"] += 1

            good_evals = fault_evals = element_visits = event = _per_gate
            scheduled = diverge = converge = _per_gate

        tests = _tests(s298)
        for variant in PARITY_VARIANTS:
            tracer = Silent()
            _parity_run(s298, tests, variant, tracer)
            assert tracer.calls == Counter(cycle_end=len(tests.vectors)), variant

    def test_noop_run_has_no_telemetry(self, s27):
        result = ConcurrentFaultSimulator(s27, options=CSIM).run(_tests(s27))
        assert result.telemetry is None

    def test_base_tracer_telemetry_is_none(self):
        assert Tracer().telemetry() is None
        assert NULL_TRACER.enabled is False


class TestReconciliation:
    """RecordingTracer totals == the run's WorkCounters, exactly."""

    @pytest.mark.parametrize("engine", CONCURRENT_VARIANTS + ("PROOFS",))
    def test_stuck_at_engines(self, s27, engine):
        tests = _tests(s27)
        baseline = run_stuck_at(s27, tests, engine)
        tracer = RecordingTracer()
        result = run_stuck_at(s27, tests, engine, tracer=tracer)
        assert result.detected == baseline.detected
        assert result.counters == baseline.counters
        assert tracer.totals == result.counters
        assert result.telemetry is not None
        assert result.telemetry.totals == result.counters

    def test_transition_engine(self, s27):
        tests = _tests(s27)
        baseline = run_transition(s27, tests)
        tracer = RecordingTracer()
        result = run_transition(s27, tests, tracer=tracer)
        assert result.detected == baseline.detected
        assert result.counters == baseline.counters
        assert tracer.totals == result.counters
        assert result.telemetry.engine == result.engine

    def test_event_engine(self, s27):
        delays = typed_delays(s27)
        period = delays.max_delay * s27.num_levels + 5
        vectors = _tests(s27, 40).vectors
        baseline = ConcurrentEventFaultSimulator(s27, delays=delays).run(
            vectors, period
        )
        tracer = RecordingTracer()
        result = ConcurrentEventFaultSimulator(
            s27, delays=delays, tracer=tracer
        ).run(vectors, period)
        assert result.detected == baseline.detected
        assert result.counters == baseline.counters
        assert tracer.totals == result.counters
        assert set(tracer.phase_seconds) == {"apply", "settle", "strobe", "latch"}

    def test_larger_circuit_with_options(self, s298):
        tests = _tests(s298, 40)
        tracer = RecordingTracer()
        result = run_stuck_at(
            s298, tests, options=SimOptions(split_lists=True), tracer=tracer
        )
        assert tracer.totals == result.counters

    def test_per_gate_churn_sums_to_counters(self, s27):
        tracer = RecordingTracer()
        result = run_stuck_at(s27, _tests(s27), "csim-MV", tracer=tracer)
        # Every concurrent-engine evaluation is attributed to a gate.
        assert sum(tracer.gate_fault_evals.values()) == (
            result.counters.fault_evaluations
        )
        assert sum(tracer.gate_good_evals.values()) == (
            result.counters.good_evaluations
        )

    def test_per_cycle_rows_sum_to_totals(self, s27):
        tracer = RecordingTracer()
        result = run_stuck_at(s27, _tests(s27), "csim-MV", tracer=tracer)
        telemetry = result.telemetry
        assert telemetry.num_cycles == result.counters.cycles
        for key in (
            "good_evaluations",
            "fault_evaluations",
            "element_visits",
            "events",
            "gates_scheduled",
        ):
            assert sum(telemetry.series(key)) == getattr(result.counters, key)

    def test_drop_timeline_matches_detections(self, s27):
        tracer = RecordingTracer()
        result = run_stuck_at(s27, _tests(s27), "csim-MV", tracer=tracer)
        # Default options drop on detection: one drop per detected fault,
        # in exactly the cycle the detection recorded.
        assert sum(tracer.drop_cycles.values()) == len(result.detected)
        expected = {}
        for cycle in result.detected.values():
            expected[cycle] = expected.get(cycle, 0) + 1
        assert tracer.drop_cycles == expected
        assert tracer.detect_cycles == expected

    def test_element_lifecycle_balances(self, s27):
        tracer = RecordingTracer()
        run_stuck_at(s27, _tests(s27), "csim", tracer=tracer)
        assert tracer.diverges >= tracer.converges > 0
        live = [row["live_elements"] for row in tracer.cycles]
        assert max(live) == tracer.telemetry().peak_live_elements()

    def test_phase_times_cover_known_phases(self, s27):
        tracer = RecordingTracer()
        run_stuck_at(s27, _tests(s27), "csim-MV", tracer=tracer)
        assert set(tracer.phase_seconds) == {"apply", "settle", "detect", "clock"}
        assert all(seconds >= 0.0 for seconds in tracer.phase_seconds.values())


class TestExporters:
    def test_jsonl_round_trip(self, s27, tmp_path):
        tracer = RecordingTracer(record_events=True)
        run_stuck_at(s27, _tests(s27, 20), "csim-MV", tracer=tracer)
        path = tmp_path / "trace.jsonl"
        count = write_jsonl_trace(tracer.records, path)
        assert count == len(tracer.records) > 0
        assert read_jsonl_trace(path) == tracer.records

    def test_trace_stream_shape(self, s27):
        tracer = RecordingTracer(record_events=True)
        run_stuck_at(s27, _tests(s27, 10), "csim-MV", tracer=tracer)
        kinds = [record["t"] for record in tracer.records]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "cycle" in kinds and "drop" in kinds and "scheduled" in kinds

    def test_lightweight_stream_omits_hot_records(self, s27):
        tracer = RecordingTracer(record_events=False)
        run_stuck_at(s27, _tests(s27, 10), "csim-MV", tracer=tracer)
        kinds = {record["t"] for record in tracer.records}
        assert "fault_evals" not in kinds and "scheduled" not in kinds
        assert "cycle" in kinds

    def test_metrics_summary_is_json_safe(self, s27, tmp_path):
        tracer = RecordingTracer()
        result = run_stuck_at(s27, _tests(s27, 20), "csim-MV", tracer=tracer)
        summary = metrics_summary(result.telemetry)
        text = json.dumps(summary)
        assert result.engine in text
        path = tmp_path / "metrics.json"
        write_metrics_json(result.telemetry, path)
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(text)
        assert on_disk["counters"]["cycles"] == result.counters.cycles

    def test_profile_report_reflects_counters(self, s27):
        tracer = RecordingTracer()
        result = run_stuck_at(s27, _tests(s27, 30), "csim-MV", tracer=tracer)
        report = profile_report(result.telemetry, circuit=s27)
        assert str(result.counters.fault_evaluations) in report
        assert str(result.counters.total_work()) in report
        # With the circuit supplied, hot gates appear by netlist name.
        top_gate, _ = result.telemetry.top_gates_by_fault_evals(1)[0]
        assert s27.gates[top_gate].name in report

    def test_profile_report_without_circuit(self, s27):
        tracer = RecordingTracer()
        result = run_stuck_at(s27, _tests(s27, 10), "PROOFS", tracer=tracer)
        report = profile_report(result.telemetry)
        assert "PROOFS" in report and "work counters" in report


class TestHarnessIntegration:
    def test_compare_engines_tracer_factory(self, s27):
        tests = _tests(s27, 30)
        tracers = {}

        def factory(engine):
            tracers[engine] = RecordingTracer()
            return tracers[engine]

        results = compare_engines(
            s27, tests, ("csim-MV", "PROOFS"), tracer_factory=factory
        )
        assert set(tracers) == {"csim-MV", "PROOFS"}
        for result in results:
            assert tracers[result.engine].totals == result.counters

    def test_table6_telemetry_rows(self):
        rows, _ = table6(circuits=("s298",), scale=0.1, telemetry=True)
        summary = rows[0]["csim-TV_telemetry"]
        json.dumps(summary)
        assert summary["counters"]["cycles"] == summary["num_cycles"]

    def test_serial_oracle_reconciles(self, s27):
        tests = _tests(s27, 10)
        tracer = RecordingTracer()
        result = run_stuck_at(s27, tests, "serial", tracer=tracer)
        assert result.telemetry is not None
        assert tracer.totals == result.counters
        assert result.wall_seconds > 0.0


class TestCounterConsistency:
    """Satellite: every engine reports wall time and a memory model."""

    def test_serial_reports_memory_and_time(self, s27):
        result = simulate_serial(s27, _tests(s27, 5).vectors)
        assert result.wall_seconds > 0.0
        assert result.memory.num_descriptors == result.num_faults > 0


class TestCli:
    def test_simulate_profile(self, capsys):
        assert main(["simulate", "s27", "--random-patterns", "25",
                     "--seed", "3", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile: csim-MV on s27" in out
        assert "work counters" in out
        assert "phase wall time" in out

    def test_simulate_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["simulate", "s27", "--random-patterns", "25",
                     "--seed", "3", "--trace", str(trace)]) == 0
        records = read_jsonl_trace(trace)
        assert records[0]["t"] == "run_start"
        assert records[-1]["t"] == "run_end"
        assert str(trace) in capsys.readouterr().err

    def test_transition_profile(self, capsys):
        assert main(["transition", "s27", "--random-patterns", "20",
                     "--profile"]) == 0
        assert "profile: csim-TV on s27" in capsys.readouterr().out

    def test_serial_profile_works(self, capsys):
        """The serial oracle records telemetry too — --profile prints it."""
        assert main(["simulate", "s27", "--engine", "serial",
                     "--random-patterns", "5", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "profile: serial" in captured.out

    def test_no_flags_no_tracing(self, capsys):
        assert main(["simulate", "s27", "--random-patterns", "10"]) == 0
        assert "profile" not in capsys.readouterr().out
