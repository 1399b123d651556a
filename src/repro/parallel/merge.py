"""Deterministic merging of per-shard fault-simulation results.

The merge contract, in order of strength:

* **Simulation outcome is partition-invariant.**  A faulty machine's
  trajectory — when it diverges, what it propagates, when it reaches an
  output — depends only on the good machine and its own fault, never on
  which other faults share the engine.  So ``detected``,
  ``potentially_detected`` (with their detection cycles), coverage and the
  fault universe size of the merged result are *bit-identical* to a
  single-process run over the whole universe, for any shard count.  The
  equivalence tests and the hypothesis property suite pin this down.
* **The merge is deterministic.**  Results are merged in shard order and
  detection dicts are rebuilt sorted by (cycle, fault), so the merged
  result is a pure function of the shard partition — independent of
  worker scheduling, completion order, or the executor used
  (multiprocessing and the in-process sequential executor produce
  identical merged results).
* **Counters and memory aggregate the work actually done.**  Work
  counters are summed across shards and ``cycles`` takes the furthest
  shard.  Because every shard re-simulates the good machine and scheduling
  is a union over machine events, the summed counters *exceed* the
  single-process counters (for K > 1) by exactly the replication overhead
  — the quantity the scaling benchmark reports as parallel efficiency.
  For K = 1 the merge is the identity and every field matches the plain
  run bit-for-bit.  Modelled memory sums the same way: shards hold
  disjoint descriptor/element populations, so the summed peak is the
  campaign's aggregate footprint (an upper bound on the single-process
  peak, whose per-cycle maxima need not align across shards).

A shard that breached its budget marks the merged result ``truncated``
with the shard identified in the reason, and ``num_vectors`` drops to the
shortest shard's count — the prefix every fault was actually simulated
against (the contract of :mod:`repro.robust.budget`, lifted to campaigns).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import Telemetry
from repro.result import FaultSimResult, MemoryStats, WorkCounters

_SUMMED_CYCLE_FIELDS = (
    "good_evaluations",
    "fault_evaluations",
    "element_visits",
    "events",
    "gates_scheduled",
    "live_elements",
    "visible_elements",
    "invisible_elements",
    "drops",
    "diverges",
    "converges",
)


def merge_counters(parts: Sequence[WorkCounters]) -> WorkCounters:
    """Aggregate work counters: sums, except ``cycles`` (furthest shard)."""
    return WorkCounters(
        cycles=max((part.cycles for part in parts), default=0),
        good_evaluations=sum(part.good_evaluations for part in parts),
        fault_evaluations=sum(part.fault_evaluations for part in parts),
        element_visits=sum(part.element_visits for part in parts),
        events=sum(part.events for part in parts),
        gates_scheduled=sum(part.gates_scheduled for part in parts),
    )


def merge_memory(parts: Sequence[MemoryStats]) -> MemoryStats:
    """Aggregate the modelled memory of disjoint shard populations."""
    merged = MemoryStats(num_descriptors=sum(part.num_descriptors for part in parts))
    merged.live_elements = sum(part.live_elements for part in parts)
    merged.peak_elements = sum(part.peak_elements for part in parts)
    return merged


def _merge_int_maps(parts: List[Dict]) -> Dict:
    merged: Dict = {}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged.get(key, 0) + value
    return dict(sorted(merged.items()))


def merge_telemetry(parts: Sequence[Optional[Telemetry]]) -> Optional[Telemetry]:
    """Merge per-shard telemetry into one campaign view (or None).

    Per-cycle series are summed row-by-row (shards simulate the same
    cycles); shards truncated short contribute only the rows they ran.
    """
    recorded = [part for part in parts if part is not None]
    if not recorded:
        return None
    rows: List[Dict[str, Any]] = []
    depth_of_row: List[Dict[int, int]] = []
    for part in recorded:
        for position, row in enumerate(part.cycles):
            if position == len(rows):
                rows.append(
                    {"cycle": row["cycle"], **{f: 0 for f in _SUMMED_CYCLE_FIELDS}}
                )
                depth_of_row.append({})
            merged_row = rows[position]
            for field_name in _SUMMED_CYCLE_FIELDS:
                merged_row[field_name] += row.get(field_name, 0)
            for level, count in row.get("queue_depth", {}).items():
                depths = depth_of_row[position]
                depths[level] = depths.get(level, 0) + count
    for merged_row, depths in zip(rows, depth_of_row):
        merged_row["queue_depth"] = dict(sorted(depths.items()))
    return Telemetry(
        engine=recorded[0].engine,
        circuit=recorded[0].circuit,
        wall_seconds=max(part.wall_seconds for part in recorded),
        totals=merge_counters([part.totals for part in recorded]),
        phase_seconds=_merge_int_maps([part.phase_seconds for part in recorded]),
        cycles=rows,
        gate_fault_evals=_merge_int_maps(
            [part.gate_fault_evals for part in recorded]
        ),
        gate_good_evals=_merge_int_maps([part.gate_good_evals for part in recorded]),
        list_length_histogram=_merge_int_maps(
            [part.list_length_histogram for part in recorded]
        ),
        drop_cycles=_merge_int_maps([part.drop_cycles for part in recorded]),
        detect_cycles=_merge_int_maps([part.detect_cycles for part in recorded]),
        diverges=sum(part.diverges for part in recorded),
        converges=sum(part.converges for part in recorded),
        budget_breaches=[
            dict(breach) for part in recorded for breach in part.budget_breaches
        ],
        fallbacks=[dict(f) for part in recorded for f in part.fallbacks],
    )


def merge_results(
    parts: Sequence[FaultSimResult],
    wall_seconds: Optional[float] = None,
) -> FaultSimResult:
    """Merge shard results (in shard order) into one campaign result.

    ``wall_seconds`` should be the campaign's elapsed wall clock (shards
    overlap in time under multiprocessing); it defaults to the slowest
    shard's own wall time.
    """
    if not parts:
        raise ValueError("merge_results needs at least one shard result")

    detected = dict(
        sorted(
            ((fault, cycle) for part in parts for fault, cycle in part.detected.items()),
            key=lambda item: (item[1], item[0]),
        )
    )
    potential = dict(
        sorted(
            (
                (fault, cycle)
                for part in parts
                for fault, cycle in part.potentially_detected.items()
            ),
            key=lambda item: (item[1], item[0]),
        )
    )

    responses = None
    if any(part.responses is not None for part in parts):
        # Shards hold disjoint fault populations, so the merged response
        # map is a plain union — rebuilt sorted by fault so the dictionary
        # bytes downstream are a pure function of the universe, never of
        # shard count or completion order.
        responses = dict(
            sorted(
                (fault, failures)
                for part in parts
                if part.responses is not None
                for fault, failures in part.responses.items()
            )
        )

    truncation_reason = None
    for index, part in enumerate(parts):
        if part.truncated:
            reason = part.truncation_reason or "budget exceeded"
            truncation_reason = (
                reason if len(parts) == 1 else f"shard {index}/{len(parts)}: {reason}"
            )
            break

    merged = FaultSimResult(
        engine=parts[0].engine,
        circuit_name=parts[0].circuit_name,
        num_faults=sum(part.num_faults for part in parts),
        num_vectors=min(part.num_vectors for part in parts),
        detected=detected,
        potentially_detected=potential,
        counters=merge_counters([part.counters for part in parts]),
        memory=merge_memory([part.memory for part in parts]),
        wall_seconds=(
            max(part.wall_seconds for part in parts)
            if wall_seconds is None
            else wall_seconds
        ),
        truncated=truncation_reason is not None,
        truncation_reason=truncation_reason,
        fallbacks=[dict(f) for part in parts for f in part.fallbacks],
        axis_windows=merge_axis_windows([part.axis_windows for part in parts]),
        responses=responses,
    )
    merged.telemetry = merge_telemetry([part.telemetry for part in parts])
    return merged


def merge_axis_windows(parts: List[Dict[str, int]]) -> Dict[str, int]:
    """Sum per-axis window counts across shards (vector engine only).

    Each shard's scheduler plans independently from its own live-fault
    count, so the merged mix reports the campaign's actual axis usage —
    it is *not* expected to match a single-process run's mix (detection
    outcomes are bit-identical regardless; the mix is telemetry).
    """
    merged: Dict[str, int] = {}
    for part in parts:
        for axis, count in part.items():
            merged[axis] = merged.get(axis, 0) + count
    return merged
