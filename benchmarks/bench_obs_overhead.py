"""Observability overhead — the zero-overhead-when-disabled contract.

Three configurations of the same workload:

* ``off``       — no tracer at all (the seed behaviour);
* ``noop``      — the :class:`Tracer` base class attached: it records
                  nothing, so the engine sends it only run, cycle, phase
                  and detection hooks, no per-gate ones;
* ``recording`` — a full :class:`RecordingTracer` (aggregates, per-cycle
                  rows; no per-event record stream).

The work counters must be identical across all three — instrumentation
observes the simulation, it never changes it — and the untraced run must
not pay for the feature: its wall time stays within noise of the seed.
Wall-clock assertions are generous (pure-Python timing on shared CI), the
counter equality is exact.
"""

import pytest

from conftest import SCALE, run_once
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import CSIM_MV
from repro.harness.runner import workload_circuit, workload_tests
from repro.obs import RecordingTracer, Tracer, metrics_summary

CIRCUITS = ("s298", "s526")

MODES = ("off", "noop", "recording")


def _tracer_for(mode):
    if mode == "off":
        return None
    if mode == "noop":
        return Tracer()
    return RecordingTracer()


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("mode", MODES)
def test_obs_overhead(benchmark, name, mode):
    circuit = workload_circuit(name, SCALE)
    tests = workload_tests(name, SCALE, "deterministic")
    tracer = _tracer_for(mode)

    def run():
        return ConcurrentFaultSimulator(
            circuit, options=CSIM_MV, tracer=tracer
        ).run(tests)

    result = run_once(benchmark, run)
    extra = dict(
        circuit=name,
        mode=mode,
        total_work=result.counters.total_work(),
        wall_seconds=result.wall_seconds,
    )
    if result.telemetry is not None:
        extra["telemetry"] = metrics_summary(result.telemetry)
    benchmark.extra_info.update(extra)


@pytest.mark.parametrize("name", CIRCUITS)
def test_tracing_never_changes_the_simulation(name):
    circuit = workload_circuit(name, SCALE)
    tests = workload_tests(name, SCALE, "deterministic")
    results = {
        mode: ConcurrentFaultSimulator(
            circuit, options=CSIM_MV, tracer=_tracer_for(mode)
        ).run(tests)
        for mode in MODES
    }
    reference = results["off"]
    for mode in ("noop", "recording"):
        assert results[mode].detected == reference.detected
        assert results[mode].counters == reference.counters
    # And the recording tracer reconciled exactly.
    assert results["recording"].telemetry.totals == reference.counters


@pytest.mark.parametrize("name", CIRCUITS)
def test_disabled_tracing_is_free(name):
    """Median-of-5 untraced wall time stays within noise of the no-op path.

    Traced or not, step() and the settle kernel run one body; without a
    tracer every hook site is a local ``None`` check that fails, and the
    no-op tracer adds the per-cycle hooks on top.  'Free' here means: no
    systematic slowdown beyond timer noise.  The bound is deliberately
    loose for shared CI machines.
    """
    import statistics

    circuit = workload_circuit(name, SCALE)
    tests = workload_tests(name, SCALE, "deterministic")

    def median_wall(tracer):
        times = []
        for _ in range(5):
            result = ConcurrentFaultSimulator(
                circuit, options=CSIM_MV, tracer=tracer
            ).run(tests)
            times.append(result.wall_seconds)
        return statistics.median(times)

    untraced = median_wall(None)
    noop = median_wall(Tracer())
    # The untraced path must not be slower than the no-op-traced path by
    # more than generous jitter; it contains strictly less code.
    assert untraced <= noop * 1.5 + 0.05
