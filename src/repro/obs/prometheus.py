"""Prometheus text exposition for service metrics and engine telemetry.

:func:`render_prometheus` turns the JSON snapshot that
:meth:`repro.serve.metrics.ServiceMetrics.snapshot` produces into the
standard `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
``# HELP``/``# TYPE`` headers, counter/gauge families with labels, and
proper cumulative histograms (``_bucket``/``_sum``/``_count`` with an
``le="+Inf"`` bucket) for the per-phase latencies and batch sizes.  The
JSON snapshot stays the source of truth; this module only re-renders it,
so the two ``/metrics`` representations can never drift apart.

:func:`parse_prometheus_text` is the matching minimal parser — enough to
round-trip the exposition in the tests, not a full client library.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}

#: Engine work-counter fields exported as one labelled counter family.
_WORK_KINDS = (
    "cycles",
    "good_evaluations",
    "fault_evaluations",
    "element_visits",
    "events",
    "gates_scheduled",
)


def _escape(value: object) -> str:
    text = str(value)
    for raw, escaped in _LABEL_ESCAPES.items():
        text = text.replace(raw, escaped)
    return text


def _labels(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in labels.items())
    return "{" + inner + "}"


def _num(value: Any) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Exposition:
    """Accumulates families in emission order, one HELP/TYPE per family."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, value: object, labels: Optional[Mapping[str, object]] = None
    ) -> None:
        self.lines.append(f"{name}{_labels(labels or {})} {_num(value)}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _histogram(
    out: _Exposition,
    name: str,
    help_text: str,
    buckets: List[Tuple[float, int]],
    total: int,
    sum_value: float,
    labels: Optional[Mapping[str, object]] = None,
) -> None:
    """One histogram family from per-bucket (non-cumulative) counts."""
    out.family(name, "histogram", help_text)
    base = dict(labels or {})
    cumulative = 0
    for bound, count in buckets:
        cumulative += count
        out.sample(f"{name}_bucket", cumulative, {**base, "le": _num(bound)})
    if not buckets or buckets[-1][0] != float("inf"):
        out.sample(f"{name}_bucket", cumulative, {**base, "le": "+Inf"})
    out.sample(f"{name}_sum", sum_value, base)
    out.sample(f"{name}_count", total, base)


def render_prometheus(snapshot: Mapping[str, object]) -> str:
    """The Prometheus text form of one ``/metrics`` JSON snapshot."""
    out = _Exposition()

    info: Dict[str, object] = {}
    if "version" in snapshot:
        info["version"] = snapshot["version"]
    out.family("repro_build_info", "gauge", "Service build information.")
    out.sample("repro_build_info", 1, info)
    if "started_at" in snapshot:
        out.family(
            "repro_started_at_seconds", "gauge", "Unix time the service started."
        )
        out.sample("repro_started_at_seconds", snapshot["started_at"])
    if "uptime_seconds" in snapshot:
        out.family("repro_uptime_seconds", "gauge", "Seconds since service start.")
        out.sample("repro_uptime_seconds", snapshot["uptime_seconds"])
    if "draining" in snapshot:
        out.family(
            "repro_draining", "gauge", "1 while the service drains for shutdown."
        )
        out.sample("repro_draining", snapshot["draining"])

    jobs = snapshot.get("jobs")
    if isinstance(jobs, Mapping):
        out.family("repro_jobs_total", "counter", "Jobs by lifecycle outcome.")
        for state in sorted(jobs):
            out.sample("repro_jobs_total", jobs[state], {"state": state})

    queue = snapshot.get("queue")
    if isinstance(queue, Mapping):
        out.family("repro_queue_depth", "gauge", "Jobs currently queued.")
        out.sample("repro_queue_depth", queue.get("depth", 0))
        out.family("repro_queue_capacity", "gauge", "Queue bound (429 beyond).")
        out.sample("repro_queue_capacity", queue.get("capacity", 0))
        out.family(
            "repro_queue_saturation", "gauge", "Queue depth / capacity [0, 1]."
        )
        out.sample("repro_queue_saturation", queue.get("saturation", 0.0))

    resilience = snapshot.get("resilience")
    if isinstance(resilience, Mapping):
        out.family(
            "repro_retries_total",
            "counter",
            "Transient-failure and expired-lease re-queues.",
        )
        out.sample("repro_retries_total", resilience.get("retries", 0))
        out.family(
            "repro_dead_lettered_total",
            "counter",
            "Jobs dead-lettered after exhausting their attempt budget.",
        )
        out.sample("repro_dead_lettered_total", resilience.get("dead_lettered", 0))
        out.family(
            "repro_resurrected_total",
            "counter",
            "Dead or failed jobs explicitly re-queued.",
        )
        out.sample("repro_resurrected_total", resilience.get("resurrected", 0))
        out.family(
            "repro_lease_events_total",
            "counter",
            "Lease lifecycle events (expired, renewed, lost).",
        )
        out.sample(
            "repro_lease_events_total",
            resilience.get("lease_expirations", 0),
            {"event": "expired"},
        )
        out.sample(
            "repro_lease_events_total",
            resilience.get("lease_renewals", 0),
            {"event": "renewed"},
        )
        out.sample(
            "repro_lease_events_total",
            resilience.get("lease_losses", 0),
            {"event": "lost"},
        )
        out.family("repro_reaper_runs_total", "counter", "Reaper sweeps completed.")
        out.sample("repro_reaper_runs_total", resilience.get("reaper_runs", 0))
        out.family(
            "repro_reaper_last_run_seconds",
            "gauge",
            "Unix time of the last reaper sweep (0 until the first).",
        )
        out.sample(
            "repro_reaper_last_run_seconds", resilience.get("reaper_last_run", 0.0)
        )

    leases = snapshot.get("leases")
    if isinstance(leases, Mapping):
        out.family("repro_leases_active", "gauge", "Jobs currently holding a lease.")
        out.sample("repro_leases_active", leases.get("active", 0))
        out.family(
            "repro_lease_oldest_age_seconds",
            "gauge",
            "Age of the stalest lease since its last grant or renewal.",
        )
        out.sample(
            "repro_lease_oldest_age_seconds", leases.get("oldest_age_seconds", 0.0)
        )

    cache = snapshot.get("cache")
    if isinstance(cache, Mapping):
        out.family(
            "repro_cache_lookups_total", "counter", "Result-cache lookups by outcome."
        )
        out.sample(
            "repro_cache_lookups_total", cache.get("hits", 0), {"outcome": "hit"}
        )
        out.sample(
            "repro_cache_lookups_total", cache.get("misses", 0), {"outcome": "miss"}
        )
        out.family("repro_cache_hit_rate", "gauge", "Cache hit fraction [0, 1].")
        out.sample("repro_cache_hit_rate", cache.get("hit_rate", 0.0))

    diagnosis = snapshot.get("diagnosis")
    if isinstance(diagnosis, Mapping):
        out.family(
            "repro_diagnose_requests_total",
            "counter",
            "Diagnosis queries by dictionary-cache outcome.",
        )
        out.sample(
            "repro_diagnose_requests_total",
            diagnosis.get("dictionary_hits", 0),
            {"outcome": "hit"},
        )
        out.sample(
            "repro_diagnose_requests_total",
            diagnosis.get("dictionary_misses", 0),
            {"outcome": "miss"},
        )
        out.family(
            "repro_dictionaries_built_total",
            "counter",
            "Fault dictionaries built and encoded by workers.",
        )
        out.sample(
            "repro_dictionaries_built_total",
            diagnosis.get("dictionaries_built", 0),
        )

    batch = snapshot.get("batch")
    if isinstance(batch, Mapping):
        size_counts = batch.get("size_counts", {})
        buckets = sorted(
            (float(size), int(count)) for size, count in dict(size_counts).items()
        )
        total = sum(count for _, count in buckets)
        sum_sizes = sum(bound * count for bound, count in buckets)
        _histogram(
            out,
            "repro_batch_size",
            "Jobs coalesced per executed batch.",
            buckets,
            total,
            sum_sizes,
        )

    latency = snapshot.get("latency")
    if isinstance(latency, Mapping):
        out.family(
            "repro_phase_seconds",
            "histogram",
            "Per-phase job latency (queue wait, setup, simulate, serialize).",
        )
        for phase in latency:
            histogram = latency[phase]
            if not isinstance(histogram, Mapping):
                continue
            raw = dict(histogram.get("buckets", {}))
            buckets = sorted(
                (
                    float("inf") if bound == "+Inf" else float(bound),
                    int(count),
                )
                for bound, count in raw.items()
            )
            base = {"phase": phase}
            cumulative = 0
            for bound, count in buckets:
                cumulative += count
                out.sample(
                    "repro_phase_seconds_bucket",
                    cumulative,
                    {**base, "le": _num(bound)},
                )
            if not buckets or buckets[-1][0] != float("inf"):
                out.sample(
                    "repro_phase_seconds_bucket", cumulative, {**base, "le": "+Inf"}
                )
            out.sample(
                "repro_phase_seconds_sum", histogram.get("sum_seconds", 0.0), base
            )
            out.sample("repro_phase_seconds_count", histogram.get("count", 0), base)

    counters = snapshot.get("counters")
    if isinstance(counters, Mapping):
        out.family(
            "repro_engine_work_total",
            "counter",
            "Engine work counters summed over executed jobs.",
        )
        for kind in _WORK_KINDS:
            out.sample(
                "repro_engine_work_total", counters.get(kind, 0), {"kind": kind}
            )

    return out.render()


# ----------------------------------------------------------------------
# the matching minimal parser (tests)
# ----------------------------------------------------------------------

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(
    text: str,
) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse an exposition into ``name -> [(labels, value), ...]``.

    Raises ``ValueError`` on any line that is neither a comment, blank,
    nor a well-formed sample — which is what makes it usable as a
    validity check in tests.
    """
    metrics: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    types: Dict[str, str] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter",
                "gauge",
                "histogram",
                "summary",
                "untyped",
            ):
                raise ValueError(f"line {line_number}: malformed TYPE: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: malformed sample: {line!r}")
        labels: Dict[str, str] = {}
        if match.group("labels"):
            for key, value in _LABEL.findall(match.group("labels")):
                labels[key] = (
                    value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
                )
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        metrics.setdefault(match.group("name"), []).append((labels, value))
    return metrics
