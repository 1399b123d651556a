"""Simulation telemetry: structured tracing, metrics and profiling.

A zero-overhead-when-disabled instrumentation layer threaded through every
engine.  Pass a :class:`Tracer` to an engine (or to
``repro.harness.runner.run_stuck_at``) to observe the run from inside:

* :class:`Tracer` — the hook protocol, no-op by default; its vocabulary
  mirrors :class:`repro.result.WorkCounters` one increment per hook call.
* :class:`RecordingTracer` — accumulates totals, per-cycle metric series,
  per-gate churn, per-phase wall time and (optionally) a full event
  stream; its :meth:`~RecordingTracer.telemetry` packages everything as a
  :class:`Telemetry`, which engines attach to
  ``FaultSimResult.telemetry``.
* :mod:`repro.obs.export` — JSONL trace streams, JSON metric summaries
  and human-readable profile reports (``--trace``/``--profile`` in the
  CLI).

Example::

    from repro import load_circuit, ConcurrentFaultSimulator
    from repro.obs import RecordingTracer
    from repro.obs.export import profile_report

    circuit = load_circuit("s27")
    tracer = RecordingTracer()
    sim = ConcurrentFaultSimulator(circuit, tracer=tracer)
    result = sim.run(vectors)
    assert result.telemetry.totals == result.counters
    print(profile_report(result.telemetry, circuit))
"""

from repro.obs.metrics import Telemetry
from repro.obs.tracer import NULL_TRACER, RecordingTracer, Tracer
from repro.obs.export import (
    metrics_summary,
    profile_report,
    read_jsonl_trace,
    write_jsonl_trace,
    write_metrics_json,
)
from repro.obs.span import (
    SpanNode,
    SpanWriter,
    TraceContext,
    collapsed_stacks,
    read_spans,
    stitch_trace,
    trace_ids,
    write_collapsed,
)
from repro.obs.prometheus import parse_prometheus_text, render_prometheus
from repro.obs.inspect import inspect_trace

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "RecordingTracer",
    "Telemetry",
    "TraceContext",
    "SpanNode",
    "SpanWriter",
    "collapsed_stacks",
    "inspect_trace",
    "metrics_summary",
    "parse_prometheus_text",
    "profile_report",
    "read_jsonl_trace",
    "read_spans",
    "render_prometheus",
    "stitch_trace",
    "trace_ids",
    "write_collapsed",
    "write_jsonl_trace",
    "write_metrics_json",
]
