"""Service metrics: what ``/metrics`` reports.

The vocabulary extends the :mod:`repro.obs` telemetry one level up: where
a :class:`repro.obs.Telemetry` describes one run from inside (per-cycle
series, per-gate churn), :class:`ServiceMetrics` describes the serving
layer around many runs — queue depth, batch sizes, cache hit rate, and
per-phase latency histograms (queue wait, setup, simulate, serialize).
The engine-level work counters of every executed job are aggregated into
one :class:`repro.result.WorkCounters` total, so the two layers reconcile:
the service's ``counters`` are the sum of its jobs' telemetry totals.

Everything is JSON-safe through :meth:`ServiceMetrics.snapshot`, the same
contract :meth:`repro.obs.Telemetry.summary_dict` keeps.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from dataclasses import asdict
from typing import Dict, List, Optional

from repro import package_version
from repro.result import WorkCounters

#: Geometric latency bucket upper bounds, in seconds.
LATENCY_BUCKETS = tuple(
    round(base * scale, 6)
    for scale in (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)
    for base in (1.0, 2.0, 5.0)
) + (float("inf"),)

#: The job phases the service times, in order.  ``diagnose`` covers one
#: ``/diagnose`` query end to end; ``dictionary_build`` the encode step of
#: a dictionary job (the simulation itself lands in ``simulate``).
PHASES = ("queue_wait", "setup", "simulate", "serialize", "diagnose",
          "dictionary_build")


class LatencyHistogram:
    """Fixed-bucket latency histogram with approximate percentiles."""

    def __init__(self) -> None:
        self.counts = [0] * len(LATENCY_BUCKETS)
        self.total = 0
        self.sum_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(LATENCY_BUCKETS, seconds)] += 1
        self.total += 1
        self.sum_seconds += seconds

    def percentile(self, fraction: float) -> float:
        """The upper bound of the bucket holding the p-th observation."""
        if not self.total:
            return 0.0
        rank = max(1, int(fraction * self.total + 0.5))
        seen = 0
        for bound, count in zip(LATENCY_BUCKETS, self.counts):
            seen += count
            if seen >= rank:
                return bound
        return LATENCY_BUCKETS[-1]

    def snapshot(self) -> dict:
        buckets = {
            ("+inf" if bound == float("inf") else f"{bound:g}"): count
            for bound, count in zip(LATENCY_BUCKETS, self.counts)
            if count
        }
        return {
            "count": self.total,
            "sum_seconds": self.sum_seconds,
            "p50_seconds": self.percentile(0.50),
            "p95_seconds": self.percentile(0.95),
            "buckets": buckets,
        }


class ServiceMetrics:
    """Thread-safe counters and histograms for one service instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.jobs_rejected = 0
        self.jobs_simulated = 0
        self.jobs_retried = 0
        self.jobs_dead_lettered = 0
        self.jobs_resurrected = 0
        self.lease_expirations = 0
        self.lease_renewals = 0
        self.lease_losses = 0
        self.reaper_runs = 0
        self.reaper_last_run = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.diagnose_requests = 0
        self.diagnose_dictionary_hits = 0
        self.diagnose_dictionary_misses = 0
        self.dictionaries_built = 0
        self.batches = 0
        self.batch_size_counts: Dict[int, int] = {}
        self.phase_latency: Dict[str, LatencyHistogram] = {
            phase: LatencyHistogram() for phase in PHASES
        }
        self.counters = WorkCounters()

    # -- recording ------------------------------------------------------

    def submitted(self) -> None:
        with self._lock:
            self.jobs_submitted += 1

    def rejected(self) -> None:
        with self._lock:
            self.jobs_rejected += 1

    def cancelled(self) -> None:
        with self._lock:
            self.jobs_cancelled += 1

    def cache_hit(self) -> None:
        with self._lock:
            self.cache_hits += 1

    def cache_miss(self) -> None:
        with self._lock:
            self.cache_misses += 1

    def diagnose_request(self, dictionary_hit: bool) -> None:
        """One ``/diagnose`` query; *dictionary_hit* is the cache outcome."""
        with self._lock:
            self.diagnose_requests += 1
            if dictionary_hit:
                self.diagnose_dictionary_hits += 1
            else:
                self.diagnose_dictionary_misses += 1

    def dictionary_built(self) -> None:
        """A worker finished building (and encoding) a fault dictionary."""
        with self._lock:
            self.dictionaries_built += 1

    def batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batch_size_counts[size] = self.batch_size_counts.get(size, 0) + 1

    def completed(self, simulated: bool, counters: Optional[WorkCounters]) -> None:
        with self._lock:
            self.jobs_completed += 1
            if simulated:
                self.jobs_simulated += 1
            if counters is not None:
                self.counters.cycles += counters.cycles
                self.counters.good_evaluations += counters.good_evaluations
                self.counters.fault_evaluations += counters.fault_evaluations
                self.counters.element_visits += counters.element_visits
                self.counters.events += counters.events
                self.counters.gates_scheduled += counters.gates_scheduled

    def failed(self) -> None:
        with self._lock:
            self.jobs_failed += 1

    def retried(self) -> None:
        """A transient failure (or expired lease) was re-queued."""
        with self._lock:
            self.jobs_retried += 1

    def dead_lettered(self) -> None:
        """A job exhausted its retry budget and entered ``dead``."""
        with self._lock:
            self.jobs_dead_lettered += 1

    def resurrected(self) -> None:
        """A dead or failed job was explicitly re-queued."""
        with self._lock:
            self.jobs_resurrected += 1

    def lease_expired(self) -> None:
        with self._lock:
            self.lease_expirations += 1

    def lease_renewed(self) -> None:
        with self._lock:
            self.lease_renewals += 1

    def lease_lost(self) -> None:
        """A worker finished a job whose lease it no longer owned."""
        with self._lock:
            self.lease_losses += 1

    def reaper_ran(self, at: float) -> None:
        with self._lock:
            self.reaper_runs += 1
            self.reaper_last_run = at

    def phase(self, name: str, seconds: float) -> None:
        with self._lock:
            self.phase_latency[name].observe(seconds)

    # -- reporting ------------------------------------------------------

    def snapshot(
        self,
        queue_depth: int,
        queue_capacity: int,
        leases: Optional[dict] = None,
        draining: bool = False,
    ) -> dict:
        with self._lock:
            lookups = self.cache_hits + self.cache_misses
            sizes: List[int] = []
            for size, count in self.batch_size_counts.items():
                sizes.extend([size] * count)
            return {
                "version": package_version(),
                "started_at": self.started_at,
                "uptime_seconds": time.time() - self.started_at,
                "draining": draining,
                "jobs": {
                    "submitted": self.jobs_submitted,
                    "completed": self.jobs_completed,
                    "simulated": self.jobs_simulated,
                    "failed": self.jobs_failed,
                    "cancelled": self.jobs_cancelled,
                    "rejected": self.jobs_rejected,
                    "retried": self.jobs_retried,
                    "dead_lettered": self.jobs_dead_lettered,
                    "resurrected": self.jobs_resurrected,
                },
                "queue": {
                    "depth": queue_depth,
                    "capacity": queue_capacity,
                    "saturation": (
                        queue_depth / queue_capacity if queue_capacity else 0.0
                    ),
                },
                "resilience": {
                    "retries": self.jobs_retried,
                    "dead_lettered": self.jobs_dead_lettered,
                    "resurrected": self.jobs_resurrected,
                    "lease_expirations": self.lease_expirations,
                    "lease_renewals": self.lease_renewals,
                    "lease_losses": self.lease_losses,
                    "reaper_runs": self.reaper_runs,
                    "reaper_last_run": self.reaper_last_run,
                },
                "leases": dict(leases)
                if leases is not None
                else {"active": 0, "oldest_age_seconds": 0.0},
                "cache": {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "hit_rate": self.cache_hits / lookups if lookups else 0.0,
                },
                "diagnosis": {
                    "requests": self.diagnose_requests,
                    "dictionary_hits": self.diagnose_dictionary_hits,
                    "dictionary_misses": self.diagnose_dictionary_misses,
                    "dictionaries_built": self.dictionaries_built,
                },
                "batch": {
                    "count": self.batches,
                    "mean_size": sum(sizes) / len(sizes) if sizes else 0.0,
                    "max_size": max(sizes) if sizes else 0,
                    "size_counts": {
                        str(size): count
                        for size, count in sorted(self.batch_size_counts.items())
                    },
                },
                "latency": {
                    phase: histogram.snapshot()
                    for phase, histogram in self.phase_latency.items()
                },
                "counters": asdict(self.counters),
            }
