"""Exporters: JSONL trace streams, JSON metric summaries, profile reports.

Three consumers, three formats:

* ``write_jsonl_trace`` / ``read_jsonl_trace`` — the event stream a
  :class:`repro.obs.RecordingTracer` accumulates, one JSON object per
  line, round-trippable for offline analysis.
* ``metrics_summary`` / ``write_metrics_json`` — the compact JSON summary
  the benchmark trajectory (``BENCH_*.json``) and the harness tables keep.
* ``profile_report`` — the human-readable profile: totals and phase
  times, the top-k gates by fault-evaluation churn, the drop timeline and
  the traversed-list-length histogram (the paper's Table 2 internal
  statistics, per run).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.obs.metrics import Telemetry

if TYPE_CHECKING:
    from repro.circuit.netlist import Circuit


def write_jsonl_trace(records: Iterable[Dict[str, object]], path: str) -> int:
    """Write trace *records* to *path* as JSON Lines; returns the count."""
    count = 0
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_jsonl_trace(path: str) -> List[Dict[str, object]]:
    """Read a JSONL trace back into the list of records that produced it."""
    records: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def metrics_summary(telemetry: Telemetry) -> Dict[str, object]:
    """The JSON-safe metrics summary for one recorded run."""
    return telemetry.summary_dict()


def write_metrics_json(telemetry: Telemetry, path: str) -> None:
    """Write :func:`metrics_summary` to *path* (pretty-printed JSON)."""
    with open(path, "w") as handle:
        json.dump(metrics_summary(telemetry), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _histogram_buckets(histogram: Dict[int, int]) -> List[tuple]:
    """Collapse exact lengths into power-of-two buckets for display."""
    buckets: Dict[int, int] = {}
    for length, count in histogram.items():
        upper = 1
        while upper < length:
            upper *= 2
        buckets[upper] = buckets.get(upper, 0) + count
    return sorted(buckets.items())


def profile_report(
    telemetry: Telemetry,
    circuit: Optional["Circuit"] = None,
    top_k: int = 10,
    max_timeline_rows: int = 20,
) -> str:
    """Render the human-readable profile of one recorded run.

    *circuit* (a :class:`repro.circuit.netlist.Circuit`) is optional; when
    given, gate indices resolve to their netlist names.
    """

    def gate_name(index: int) -> str:
        if circuit is not None and 0 <= index < len(circuit.gates):
            return f"{circuit.gates[index].name} (#{index})"
        return f"#{index}"

    totals = telemetry.totals
    lines: List[str] = []
    lines.append(
        f"profile: {telemetry.engine} on {telemetry.circuit} — "
        f"{telemetry.num_cycles} cycles, {telemetry.wall_seconds:.3f}s"
    )
    lines.append("")
    lines.append("work counters")
    lines.append(f"  cycles            {totals.cycles}")
    lines.append(f"  good evaluations  {totals.good_evaluations}")
    lines.append(f"  fault evaluations {totals.fault_evaluations}")
    lines.append(f"  element visits    {totals.element_visits}")
    lines.append(f"  events            {totals.events}")
    lines.append(f"  gates scheduled   {totals.gates_scheduled}")
    lines.append(f"  total work        {totals.total_work()}")
    lines.append(
        f"  elements: {telemetry.diverges} diverged, "
        f"{telemetry.converges} converged, peak {telemetry.peak_live_elements()} live"
    )

    if telemetry.phase_seconds:
        lines.append("")
        lines.append("phase wall time")
        total_phase = sum(telemetry.phase_seconds.values()) or 1.0
        for phase, seconds in sorted(
            telemetry.phase_seconds.items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"  {phase:<16} {seconds:8.4f}s  {100.0 * seconds / total_phase:5.1f}%"
            )

    top = telemetry.top_gates_by_fault_evals(top_k)
    if top:
        lines.append("")
        lines.append(f"top {len(top)} gates by fault-evaluation churn")
        for gate, count in top:
            lines.append(f"  {gate_name(gate):<24} {count}")

    if telemetry.drop_cycles:
        lines.append("")
        total_drops = sum(telemetry.drop_cycles.values())
        lines.append(f"drop timeline ({total_drops} faults dropped)")
        timeline = sorted(telemetry.drop_cycles.items())
        shown = timeline[:max_timeline_rows]
        for cycle, count in shown:
            lines.append(f"  cycle {cycle:>6}  {count}")
        if len(timeline) > len(shown):
            remaining = sum(count for _, count in timeline[len(shown):])
            lines.append(f"  ... {len(timeline) - len(shown)} more cycles, {remaining} drops")

    if telemetry.list_length_histogram:
        lines.append("")
        lines.append("fault-list length histogram (traversals by length)")
        for upper, count in _histogram_buckets(telemetry.list_length_histogram):
            lines.append(f"  <= {upper:>6}  {count}")

    return "\n".join(lines)
