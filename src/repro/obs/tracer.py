"""The tracer protocol — the hook surface every engine reports through.

Engines hold an optional tracer and guard every hook call with a single
``is not None`` check on a local variable, so a run without tracing
executes no tracer code at all (the zero-overhead-when-disabled design
constraint; ``benchmarks/bench_obs_overhead.py`` asserts it).

The hook vocabulary mirrors :class:`repro.result.WorkCounters` increment
for increment — every ``counters.X += n`` in an engine has a matching
``trace.hook(..., n)`` call — which is what lets a recording tracer's
totals reconcile *exactly* with the counters a run reports.  On top of the
counter mirror the protocol carries the element-lifecycle events the
paper's evaluation reasons about: divergence, convergence, detection and
event-driven dropping, plus per-phase wall time and per-cycle boundaries.

Per-gate hooks (the counter mirror at one gate, ``diverge`` and
``converge``) reach only a tracer whose ``enabled`` is true
(:func:`gate_tracer`), so one that records nothing, such as a per-cycle
heartbeat, costs an engine nothing per gate.  Run, cycle, phase,
detection and resilience hooks, and bulk accounting (``gate=None``),
reach every tracer.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.result import WorkCounters

if TYPE_CHECKING:
    from repro.obs.metrics import Telemetry


class Tracer:
    """No-op tracer: the protocol and its zero-cost default.

    Subclass and override any subset of hooks; every hook ignores its
    arguments by default.  ``enabled`` advertises whether the tracer
    records anything: one that leaves it false gets no per-gate hooks
    and no expensive hook arguments (per-cycle list-size scans).
    """

    enabled = False

    # -- run / cycle lifecycle -----------------------------------------

    def run_start(self, engine: str, circuit: str) -> None:
        """A ``run()`` begins on *engine* over *circuit*."""

    def run_end(self, wall_seconds: float) -> None:
        """The run finished after *wall_seconds*."""

    def cycle_start(self, cycle: int) -> None:
        """Clock cycle *cycle* (1-based) begins.  Mirrors ``cycles``."""

    def cycle_end(
        self, cycle: int, live: int = 0, visible: int = 0, invisible: int = 0
    ) -> None:
        """Cycle *cycle* ended with the given fault-element population."""

    def phase_time(self, phase: str, seconds: float) -> None:
        """One engine phase (apply/settle/detect/clock/...) took *seconds*."""

    # -- hot path (mirrors WorkCounters) -------------------------------

    def good_evals(self, gate: Optional[int], count: int = 1) -> None:
        """Good-machine evaluations; *gate* is None for bulk accounting."""

    def fault_evals(self, gate: Optional[int], count: int = 1) -> None:
        """Faulty-machine evaluations at *gate*."""

    def element_visits(self, gate: int, count: int) -> None:
        """A fault list of length *count* at *gate* was traversed."""

    def event(self, gate: int) -> None:
        """A value-change event on *gate*'s output.  Mirrors ``events``."""

    def scheduled(self, gate: int, level: int) -> None:
        """*gate* entered the evaluation queue at *level*."""

    # -- element lifecycle ---------------------------------------------

    def diverge(self, gate: int, fid: int, visible: bool = True) -> None:
        """Fault *fid* became explicit at *gate* (a new element)."""

    def converge(self, gate: int, fid: int) -> None:
        """Fault *fid*'s element at *gate* was removed."""

    def detect(self, fid: int, cycle: int, potential: bool = False) -> None:
        """Fault *fid* was first detected (or potentially detected)."""

    def drop(self, fid: int, cycle: int) -> None:
        """Fault *fid* was dropped from further simulation."""

    # -- resilience (see repro.robust) ---------------------------------

    def budget_breach(self, kind: str, limit: float, actual: float) -> None:
        """A run budget (*kind*: wall/cycles/memory) was exceeded."""

    def fallback(self, engine: str, to: str, reason: str) -> None:
        """The engine ladder degraded from *engine* to *to*."""

    # -- results --------------------------------------------------------

    def telemetry(self) -> Optional["Telemetry"]:
        """The recorded telemetry, or None for non-recording tracers."""
        return None


#: Shared no-op instance: the overhead benchmark's probe for what a tracer
#: that records nothing costs.
NULL_TRACER = Tracer()


def gate_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """*tracer* if it records, else ``None``: where an engine sends its
    per-gate hooks."""
    return tracer if tracer is not None and tracer.enabled else None


class RecordingTracer(Tracer):
    """Records totals, per-cycle series, per-gate churn and a trace stream.

    Parameters
    ----------
    record_events:
        When true, every hook also appends a structured record to
        :attr:`records` (one dict per event — the JSONL trace stream).
        Per-cycle summary records are always appended; the flag controls
        the high-frequency per-gate records (evaluations, events,
        element lifecycle).
    """

    enabled = True

    def __init__(self, record_events: bool = False) -> None:
        self.record_events = record_events
        self.engine = ""
        self.circuit = ""
        self.wall_seconds = 0.0
        self.totals = WorkCounters()
        self.phase_seconds: Dict[str, float] = {}
        #: Per-gate churn: how many faulty-machine evaluations each gate cost.
        self.gate_fault_evals: Dict[int, int] = {}
        self.gate_good_evals: Dict[int, int] = {}
        #: Traversed-list-length histogram: length -> number of traversals.
        self.list_length_histogram: Dict[int, int] = {}
        #: cycle -> faults dropped that cycle (the drop timeline).
        self.drop_cycles: Dict[int, int] = {}
        self.detect_cycles: Dict[int, int] = {}
        self.diverges = 0
        self.converges = 0
        #: Budget breaches and engine-ladder fallbacks, in event order.
        self.budget_breaches: List[Dict[str, object]] = []
        self.fallbacks: List[Dict[str, object]] = []
        #: Flushed per-cycle metric rows (see :meth:`cycle_end`).
        self.cycles: List[Dict[str, object]] = []
        #: The JSONL trace stream (dicts; see repro.obs.export).
        self.records: List[Dict[str, object]] = []
        self._cycle_base = WorkCounters()
        self._cycle_queue_depth: Dict[int, int] = {}
        self._cycle_drops = 0
        self._cycle_diverges = 0
        self._cycle_converges = 0
        self._current_cycle = 0

    # -- internals ------------------------------------------------------

    def _emit(self, record_type: str, **fields: object) -> None:
        record: Dict[str, object] = {"t": record_type, "cycle": self._current_cycle}
        record.update(fields)
        self.records.append(record)

    # -- lifecycle ------------------------------------------------------

    def run_start(self, engine: str, circuit: str) -> None:
        self.engine = engine
        self.circuit = circuit
        self._emit("run_start", engine=engine, circuit=circuit)

    def run_end(self, wall_seconds: float) -> None:
        self.wall_seconds = wall_seconds
        self._emit("run_end", wall_seconds=wall_seconds)

    def cycle_start(self, cycle: int) -> None:
        self.totals.cycles += 1
        self._current_cycle = cycle
        self._cycle_base = copy.copy(self.totals)
        self._cycle_queue_depth = {}
        self._cycle_drops = 0
        self._cycle_diverges = 0
        self._cycle_converges = 0

    def cycle_end(
        self, cycle: int, live: int = 0, visible: int = 0, invisible: int = 0
    ) -> None:
        totals, base = self.totals, self._cycle_base
        row: Dict[str, Any] = {
            "cycle": cycle,
            "good_evaluations": totals.good_evaluations - base.good_evaluations,
            "fault_evaluations": totals.fault_evaluations - base.fault_evaluations,
            "element_visits": totals.element_visits - base.element_visits,
            "events": totals.events - base.events,
            "gates_scheduled": totals.gates_scheduled - base.gates_scheduled,
            "live_elements": live,
            "visible_elements": visible,
            "invisible_elements": invisible,
            "drops": self._cycle_drops,
            "diverges": self._cycle_diverges,
            "converges": self._cycle_converges,
            "queue_depth": dict(sorted(self._cycle_queue_depth.items())),
        }
        self.cycles.append(row)
        # The trace stream is JSON by contract; JSON object keys are
        # strings, so the per-level queue depths are stringified here
        # (the in-memory row keeps integer levels).
        self._emit(
            "cycle",
            **{
                **row,
                "queue_depth": {
                    str(level): n for level, n in row["queue_depth"].items()
                },
            },
        )

    def phase_time(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    # -- hot path -------------------------------------------------------

    def good_evals(self, gate: Optional[int], count: int = 1) -> None:
        self.totals.good_evaluations += count
        if gate is not None:
            self.gate_good_evals[gate] = self.gate_good_evals.get(gate, 0) + count
        if self.record_events:
            self._emit("good_eval", gate=gate, count=count)

    def fault_evals(self, gate: Optional[int], count: int = 1) -> None:
        self.totals.fault_evaluations += count
        if gate is not None:
            self.gate_fault_evals[gate] = self.gate_fault_evals.get(gate, 0) + count
        if self.record_events:
            self._emit("fault_evals", gate=gate, count=count)

    def element_visits(self, gate: int, count: int) -> None:
        self.totals.element_visits += count
        histogram = self.list_length_histogram
        histogram[count] = histogram.get(count, 0) + 1

    def event(self, gate: int) -> None:
        self.totals.events += 1
        if self.record_events:
            self._emit("event", gate=gate)

    def scheduled(self, gate: int, level: int) -> None:
        self.totals.gates_scheduled += 1
        depth = self._cycle_queue_depth
        depth[level] = depth.get(level, 0) + 1
        if self.record_events:
            self._emit("scheduled", gate=gate, level=level)

    # -- element lifecycle ---------------------------------------------

    def diverge(self, gate: int, fid: int, visible: bool = True) -> None:
        self.diverges += 1
        self._cycle_diverges += 1
        if self.record_events:
            self._emit("diverge", gate=gate, fid=fid, visible=visible)

    def converge(self, gate: int, fid: int) -> None:
        self.converges += 1
        self._cycle_converges += 1
        if self.record_events:
            self._emit("converge", gate=gate, fid=fid)

    def detect(self, fid: int, cycle: int, potential: bool = False) -> None:
        if not potential:
            self.detect_cycles[cycle] = self.detect_cycles.get(cycle, 0) + 1
        self._emit("detect", fid=fid, potential=potential)

    def drop(self, fid: int, cycle: int) -> None:
        self.drop_cycles[cycle] = self.drop_cycles.get(cycle, 0) + 1
        self._cycle_drops += 1
        self._emit("drop", fid=fid)

    # -- resilience ----------------------------------------------------

    def budget_breach(self, kind: str, limit: float, actual: float) -> None:
        breach: Dict[str, object] = {"kind": kind, "limit": limit,
                                     "actual": actual,
                                     "cycle": self._current_cycle}
        self.budget_breaches.append(breach)
        self._emit("budget_breach", **breach)

    def fallback(self, engine: str, to: str, reason: str) -> None:
        record: Dict[str, object] = {"engine": engine, "to": to, "reason": reason}
        self.fallbacks.append(record)
        self._emit("fallback", **record)

    # -- results --------------------------------------------------------

    def telemetry(self) -> "Telemetry":
        from repro.obs.metrics import Telemetry

        return Telemetry(
            engine=self.engine,
            circuit=self.circuit,
            wall_seconds=self.wall_seconds,
            totals=self.totals,
            phase_seconds=dict(self.phase_seconds),
            cycles=list(self.cycles),
            gate_fault_evals=dict(self.gate_fault_evals),
            gate_good_evals=dict(self.gate_good_evals),
            list_length_histogram=dict(self.list_length_histogram),
            drop_cycles=dict(self.drop_cycles),
            detect_cycles=dict(self.detect_cycles),
            diverges=self.diverges,
            converges=self.converges,
            budget_breaches=[dict(b) for b in self.budget_breaches],
            fallbacks=[dict(f) for f in self.fallbacks],
        )
