"""The persistent job store: one atomically written JSON file per job.

A :class:`JobRecord` is the durable state machine of one submission
(``queued -> running -> done | failed``, with ``cancelled`` reachable from
``queued``, ``queued`` reachable again from ``running`` on a transient
failure or an expired lease, and ``dead`` — the dead-letter state — once
the retry budget is exhausted).  Every transition is flushed to
``<state_dir>/jobs/<job_id>.json`` via the same temp-file + ``os.replace``
pattern the checkpoint layer uses, so a killed service process leaves
every record either in its previous state or its next one — never torn.
Result payloads are *not* stored inline: a record carries its
``cache_key`` and the result bytes live in per-job files under
``<state_dir>/results/`` (and in the content-addressed cache), keeping
records small enough to rewrite on every transition.

On restart, :meth:`JobStore.load_all` rebuilds the in-memory index;
records found ``running`` belonged to a killed worker and are the ones
:meth:`repro.serve.service.FaultSimService.recover` re-queues for a
checkpoint resume.  It also drops the :data:`RETIRED_SPEC_KEYS` from each
stored spec, so a record written while those fields existed still parses.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

#: The legal job states, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "dead")

#: States a job never leaves on its own.  ``dead`` and ``failed`` can be
#: resurrected explicitly (``POST /jobs/<id>/retry``, ``--requeue-dead``)
#: but no automatic path ever takes a job out of them.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled", "dead"})

#: Longest error message retained on a record; the tail is elided so a
#: retry storm cannot bloat the per-job JSON rewritten on every transition.
ERROR_MAX_CHARS = 512

#: Per-attempt error-history entries retained (oldest dropped first;
#: ``error_history_dropped`` counts the elided ones).
ERROR_HISTORY_LIMIT = 8

#: Spec fields the service no longer accepts, dropped from stored records
#: on load.  Neither can change a result: every partition of the fault
#: universe merges to the same outcome, and the sanitizer only checks.
RETIRED_SPEC_KEYS = ("shard_strategy", "sanitize")


def clip_error(message: str) -> str:
    """*message* bounded to :data:`ERROR_MAX_CHARS` with an elision mark."""
    if len(message) <= ERROR_MAX_CHARS:
        return message
    suffix = f"... [{len(message)} chars]"
    return message[: ERROR_MAX_CHARS - len(suffix)] + suffix


@dataclass
class JobRecord:
    """The durable state of one submitted job."""

    job_id: str
    spec: dict
    state: str = "queued"
    priority: int = 0
    idempotency_key: Optional[str] = None
    cache_key: Optional[str] = None
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Execution attempts so far; > 1 means the job was recovered at least
    #: once after a worker death.
    attempts: int = 0
    #: True when the result came from the cache without simulating.
    cache_hit: bool = False
    #: Size of the batch this job executed in (0 until it runs).
    batch_size: int = 0
    #: Cycle the last attempt resumed from (0 for a fresh start).
    resumed_from_cycle: int = 0
    #: Lease: who claimed this job and until when the claim holds.  A
    #: ``running`` (or batch-claimed ``queued``) job whose lease expires
    #: belongs to a dead or hung worker and is re-queued by the reaper.
    lease_owner: Optional[str] = None
    lease_expires_at: Optional[float] = None
    #: Earliest wall-clock time the next retry attempt may start
    #: (exponential backoff; ``None`` = eligible immediately).
    next_retry_at: Optional[float] = None
    #: Absolute wall-clock deadline; execution beyond it produces the
    #: truncated-result contract instead of running on.
    deadline_at: Optional[float] = None
    #: Most recent error, clipped to :data:`ERROR_MAX_CHARS`.
    error: Optional[str] = None
    #: Per-attempt error history (bounded; see :meth:`note_error`).
    error_history: List[dict] = field(default_factory=list)
    #: History entries elided by the :data:`ERROR_HISTORY_LIMIT` bound.
    error_history_dropped: int = 0
    #: Human-readable one-liner of the finished result.
    summary: Optional[str] = None
    #: Span-trace id of this job (set when the service traces; the trace's
    #: root span id equals it, so workers rebuild the root context from
    #: the bare id — see :mod:`repro.obs.span`).
    trace_id: Optional[str] = None

    def public_dict(self) -> dict:
        """The JSON shape the API returns for status queries."""
        return asdict(self)

    def note_error(self, message: str, kind: str) -> None:
        """Record one failed attempt (*kind*: transient/permanent/lease).

        ``error`` holds the clipped latest message; ``error_history``
        keeps one bounded entry per attempt so a dead-lettered job
        carries how it died every time, without letting a retry storm
        grow the record without bound.
        """
        clipped = clip_error(message)
        self.error = clipped
        self.error_history.append(
            {
                "attempt": self.attempts,
                "at": time.time(),
                "kind": kind,
                "error": clipped,
            }
        )
        overflow = len(self.error_history) - ERROR_HISTORY_LIMIT
        if overflow > 0:
            del self.error_history[:overflow]
            self.error_history_dropped += overflow

    def lease_is_expired(self, now: float) -> bool:
        """Whether this record holds a lease that has lapsed."""
        return self.lease_expires_at is not None and self.lease_expires_at < now

    def clear_lease(self) -> None:
        self.lease_owner = None
        self.lease_expires_at = None


class JobStore:
    """Thread-safe persistent registry of every job the service has seen."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.jobs_dir = os.path.join(directory, "jobs")
        self.results_dir = os.path.join(directory, "results")
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.results_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}
        self._sequence = 0
        self.load_all()

    # -- persistence ----------------------------------------------------

    def _record_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.results_dir, f"{job_id}.json")

    def load_all(self) -> None:
        """(Re)build the index from disk; called once at construction."""
        with self._lock:
            self._records.clear()
            for name in sorted(os.listdir(self.jobs_dir)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(self.jobs_dir, name)
                try:
                    with open(path) as handle:
                        record = JobRecord(**json.load(handle))
                except (OSError, TypeError, ValueError):
                    continue  # torn or foreign file; never happens for our writes
                for key in RETIRED_SPEC_KEYS:
                    record.spec.pop(key, None)
                self._records[record.job_id] = record
                sequence = _sequence_of(record.job_id)
                if sequence is not None and sequence > self._sequence:
                    self._sequence = sequence

    def save(self, record: JobRecord) -> None:
        """Atomically flush *record* and update the index."""
        blob = json.dumps(asdict(record), sort_keys=True).encode()
        fd, tmp_path = tempfile.mkstemp(dir=self.jobs_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self._record_path(record.job_id))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        with self._lock:
            self._records[record.job_id] = record

    # -- queries --------------------------------------------------------

    def new_job_id(self) -> str:
        with self._lock:
            self._sequence += 1
            return f"job-{self._sequence:06d}"

    def delete(self, job_id: str) -> None:
        """Remove a record (submit rollback after a refused enqueue)."""
        with self._lock:
            self._records.pop(job_id, None)
        try:
            os.unlink(self._record_path(job_id))
        except OSError:
            pass

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def all_records(self) -> List[JobRecord]:
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.job_id)

    def by_idempotency_key(self, key: str) -> Optional[JobRecord]:
        with self._lock:
            for record in self._records.values():
                if record.idempotency_key == key:
                    return record
        return None

    def counts(self) -> Dict[str, int]:
        """state -> number of jobs currently in it."""
        totals = {state: 0 for state in JOB_STATES}
        with self._lock:
            for record in self._records.values():
                totals[record.state] = totals.get(record.state, 0) + 1
        return totals

    # -- result blobs ---------------------------------------------------

    def write_result(self, job_id: str, blob: bytes) -> None:
        fd, tmp_path = tempfile.mkstemp(dir=self.results_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.result_path(job_id))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def read_result(self, job_id: str) -> Optional[bytes]:
        try:
            with open(self.result_path(job_id), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None


def _sequence_of(job_id: str) -> Optional[int]:
    prefix, _, tail = job_id.partition("-")
    if prefix == "job" and tail.isdigit():
        return int(tail)
    return None
