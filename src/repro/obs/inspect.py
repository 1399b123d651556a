"""Run inspection: render a recorded trace directory for humans.

``repro inspect <trace-dir>`` reads what a traced run left behind — span
JSONL files from every process (:mod:`repro.obs.span`), the merged
telemetry summary (``telemetry.json``) and the trace manifest — and
renders:

* a **span timeline**: the stitched tree with per-span bars scaled to
  the trace's wall clock, so cross-process structure (api → queue →
  shards → merge) is visible at a glance;
* a **shard work-balance table**: per-shard faults, work counters and
  wall time with the imbalance ratio that bounds parallel speedup;
* a **top-gates churn report** from the merged telemetry (the paper's
  per-gate fault-evaluation ranking);
* optionally a **collapsed-stack file** (``--flamegraph``) consumable by
  ``flamegraph.pl`` and compatible viewers.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.obs.span import (
    SpanNode,
    read_spans,
    stitch_trace,
    trace_ids,
    write_collapsed,
)

def load_sidecar(trace_dir: str, stem: str, trace_id: Optional[str]) -> Optional[dict]:
    """A JSON sidecar (``<stem>-<trace_id>.json`` or ``<stem>.json``)."""
    candidates = []
    if trace_id:
        candidates.append(os.path.join(trace_dir, f"{stem}-{trace_id}.json"))
    candidates.append(os.path.join(trace_dir, f"{stem}.json"))
    for path in candidates:
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            continue
    return None


#: Width of a timeline bar in characters.
TIMELINE_COLUMNS = 48


def _bar(offset: float, width: float) -> str:
    """A timeline bar: *offset* and *width* are fractions of the trace."""
    columns = TIMELINE_COLUMNS
    start = min(columns - 1, int(offset * columns))
    length = max(1, int(width * columns))
    length = min(length, columns - start)
    return " " * start + "#" * length + " " * (columns - start - length)


def _attr_summary(attrs: Dict[str, object]) -> str:
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        elif isinstance(value, (str, int, bool)):
            parts.append(f"{key}={value}")
    return " ".join(parts)


def render_timeline(roots: List[SpanNode]) -> str:
    """The stitched span tree as an indented, bar-annotated timeline."""
    if not roots:
        return "(no spans)"
    t0 = min(root.start for root in roots)
    t1 = max(_max_end(root) for root in roots)
    total = max(t1 - t0, 1e-9)
    # Root span id equals the trace id; orphan roots (a trace whose entry
    # point emitted no root span) are parented directly under it instead.
    trace_label = roots[0].parent_id or roots[0].span_id
    lines = [
        f"trace {trace_label} — "
        f"{total * 1000:.1f} ms, {sum(1 for r in roots for _ in r.walk())} spans"
    ]
    for root in roots:
        for node, depth in root.walk():
            label = ("  " * depth + node.name)[:30]
            bar = _bar((node.start - t0) / total, node.duration / total)
            extra = _attr_summary(node.attrs)
            lines.append(
                f"  {label:<30} |{bar}| {node.duration * 1000:8.2f} ms"
                + (f"  {extra}" if extra else "")
            )
    return "\n".join(lines)


def _max_end(node: SpanNode) -> float:
    return max([node.end] + [_max_end(child) for child in node.children])


def _shard_spans(roots: List[SpanNode]) -> List[SpanNode]:
    shards = [
        node
        for root in roots
        for node, _ in root.walk()
        if "shard" in node.attrs
    ]
    shards.sort(key=lambda node: int(str(node.attrs["shard"])))
    return shards


def shard_balance_table(roots: List[SpanNode]) -> str:
    """Per-shard work and wall time, with the imbalance that caps speedup."""
    shards = _shard_spans(roots)
    if not shards:
        return "(no shard spans — single-process trace?)"
    rows = []
    durations = [node.duration for node in shards]
    slowest = max(durations) or 1e-9
    for node in shards:
        attrs = node.attrs
        rows.append(
            "  {index:>5}  {faults:>7}  {fault_evals:>12}  {events:>9}  "
            "{wall:>9.3f}  {share:>5.1f}%".format(
                index=attrs.get("shard", "?"),
                faults=attrs.get("faults", "?"),
                fault_evals=attrs.get("fault_evaluations", "?"),
                events=attrs.get("events", "?"),
                wall=node.duration,
                share=100.0 * node.duration / slowest,
            )
        )
    mean = sum(durations) / len(durations)
    header = (
        "  shard   faults   fault_evals     events    wall(s)  of-max\n"
        + "  -----  -------  ------------  ---------  ---------  ------"
    )
    footer = (
        f"  balance: {len(shards)} shards, slowest/mean = "
        f"{slowest / (mean or 1e-9):.2f}x (1.00x is perfectly balanced)"
    )
    return "\n".join(["shard work balance", header] + rows + [footer])


def top_gates_report(telemetry: Optional[dict], top_k: int = 10) -> str:
    """The churn ranking from a trace's merged telemetry summary."""
    if not telemetry:
        return "(no telemetry.json in trace directory)"
    ranked = telemetry.get("top_gates_by_fault_evals", [])[:top_k]
    if not ranked:
        return "(telemetry has no per-gate churn)"
    lines = [
        f"top {len(ranked)} gates by fault-evaluation churn "
        f"({telemetry.get('engine', '?')} on {telemetry.get('circuit', '?')})"
    ]
    for entry in ranked:
        lines.append(f"  gate #{entry['gate']:<6} {entry['fault_evals']}")
    counters = telemetry.get("counters", {})
    if counters:
        lines.append(
            "  totals: {fe} fault evals, {ev} events, {cy} cycles".format(
                fe=counters.get("fault_evaluations", "?"),
                ev=counters.get("events", "?"),
                cy=counters.get("cycles", "?"),
            )
        )
    return "\n".join(lines)


def inspect_trace(
    trace_dir: str,
    trace_id: Optional[str] = None,
    flamegraph: Optional[str] = None,
    top_k: int = 10,
) -> str:
    """The full ``repro inspect`` report for one trace directory."""
    spans = read_spans(trace_dir)
    if not spans:
        return f"{trace_dir}: no span files (was the run traced?)"
    ids = trace_ids(spans)
    sections: List[str] = []
    if trace_id is None and len(ids) > 1:
        sections.append(
            f"{len(ids)} traces in {trace_dir}; showing {ids[-1]} "
            f"(pass --trace-id to pick: {', '.join(ids)})"
        )
        trace_id = ids[-1]
    roots = stitch_trace(spans, trace_id)
    resolved_id = trace_id if trace_id is not None else (ids[0] if ids else None)
    manifest = load_sidecar(trace_dir, "manifest", resolved_id)
    if manifest:
        sections.append(
            "manifest: "
            + " ".join(f"{key}={manifest[key]}" for key in sorted(manifest))
        )
    sections.append(render_timeline(roots))
    sections.append(shard_balance_table(roots))
    sections.append(
        top_gates_report(load_sidecar(trace_dir, "telemetry", resolved_id), top_k)
    )
    if flamegraph:
        written = write_collapsed(roots, flamegraph)
        sections.append(f"wrote {written} collapsed stacks to {flamegraph}")
    return "\n\n".join(sections)
