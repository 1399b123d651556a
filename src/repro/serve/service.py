"""The fault-simulation service: queue, batcher, cache, workers, recovery.

:class:`FaultSimService` ties the serving subsystem together around the
existing engines:

* **Submit** (:meth:`FaultSimService.submit`) validates the spec, honours
  idempotency keys, and short-circuits through the content-addressed
  result cache — a duplicate of a finished job is marked ``done`` at
  submit time without ever entering the queue.  A full queue raises
  :class:`repro.serve.queue.QueueFull` (HTTP 429).
* **Execute** — workers claim the queue head, coalesce queue-mates
  sharing a (circuit, engine) group key into one batch
  (:mod:`repro.serve.batch`), and run each job's campaign (resolved by
  :class:`repro.serve.spec.SpecResolver`) through
  :func:`repro.campaign.execute` with a per-job checkpoint, sharded when
  the job asks for ``jobs > 1``.  Budgets
  (:class:`repro.robust.budget.Budget`) compose from the job's
  ``max_cycles`` and the service-wide wall-clock cap.
* **Recover** (:meth:`FaultSimService.recover`) re-queues every job a
  killed worker left ``running``; the next attempt resumes from the job's
  checkpoint instead of recomputing, and the resumed result is
  bit-identical to an uninterrupted run (the checkpoint layer's
  contract).
* **Leases + the reaper** — claiming a batch writes a lease (owner id +
  expiry) onto every :class:`JobRecord` in it; the executing worker
  renews the batch's leases from the engine's tracer hooks, and
  shard *processes* heartbeat implicitly through their periodic
  checkpoint writes (:func:`repro.robust.checkpoint.latest_checkpoint_mtime`).
  A reaper thread (:meth:`FaultSimService.reap`) re-queues expired-lease
  jobs through the same path :meth:`recover` uses — a worker that dies
  or hangs mid-job no longer strands the job until a restart.
* **Retry with classified backoff** — transient failures (I/O, torn
  checkpoints, chaos-injected faults) re-queue with exponential backoff
  + jitter up to a per-job attempt cap, then dead-letter into the
  terminal ``dead`` state carrying the full bounded error history;
  permanent failures (bad netlists, spec validation) fail fast on
  attempt 1.  ``POST /jobs/<id>/retry`` and ``repro serve
  --requeue-dead`` resurrect dead-lettered jobs.
* **Deadlines + drain** — per-job deadline budgets compose with the
  service-wide wall cap through :meth:`repro.robust.budget.Budget.tightened`
  and produce the truncated-result contract instead of a hang; a
  SIGTERM-initiated graceful drain (:meth:`FaultSimService.begin_drain`)
  stops claiming, finishes or checkpoints in-flight batches, and answers
  submits with :class:`ServiceDraining` (HTTP 503 + Retry-After) while
  ``/healthz`` reports ``draining``.

Results returned through the service are serialized canonically
(:func:`repro.serve.cache.serialize_result`): the outcome — detections and
their cycles — is exactly what a direct ``repro simulate`` run of the same
inputs produces, whatever worker, batch or shard count served it.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro import package_version
from repro.campaign import execute
from repro.circuit.netlist import NetlistError
from repro.obs.span import SpanWriter, TraceContext
from repro.obs.tracer import Tracer
from repro.result import FaultSimResult, WorkCounters
from repro.robust.budget import Budget
from repro.robust.checkpoint import (
    CheckpointError,
    checkpoint_files,
    latest_checkpoint_mtime,
    read_checkpoint,
)
from repro.serve.batch import Batcher
from repro.serve.cache import ResultCache, cache_key, serialize_result
from repro.serve.metrics import ServiceMetrics
from repro.serve.queue import JobQueue, QueueFull
from repro.serve.spec import JobSpec, ResolvedJob, SpecError, SpecResolver
from repro.serve.store import TERMINAL_STATES, JobRecord, JobStore

if TYPE_CHECKING:
    from repro.diagnosis.dictionary import FaultDictionary

__all__ = [
    "ServeConfig",
    "FaultSimService",
    "QueueFull",
    "SpecError",
    "ServiceDraining",
    "classify_failure",
]


#: Longest retry backoff, in seconds, however many attempts came before.
RETRY_BACKOFF_CAP = 30.0

#: Minimum age, in seconds, before the reaper re-queues a ``queued``
#: record absent from the queue: guards the submit path's save-then-push
#: window against a double enqueue.
REQUEUE_GRACE = 1.0


class ServiceDraining(RuntimeError):
    """The service is draining; the submission was refused (HTTP 503)."""

    def __init__(self) -> None:
        super().__init__("service is draining; retry against another instance")


def classify_failure(exc: BaseException) -> str:
    """``"transient"`` (worth retrying) or ``"permanent"`` (fail fast).

    Permanent failures are deterministic properties of the job itself —
    a malformed spec or netlist reproduces identically on every attempt,
    so retrying only burns compute.  Transient failures come from the
    environment: I/O errors, torn checkpoints, and the chaos suite's
    injected faults all stand a real chance of succeeding on a retry
    (usually resumed from the last checkpoint).  Unknown exceptions are
    treated as permanent: a retry loop hiding a real bug is worse than a
    fast, visible failure.
    """
    if isinstance(exc, (SpecError, NetlistError)):
        return "permanent"
    if isinstance(exc, (OSError, CheckpointError)):
        return "transient"
    from repro.diagnosis.dictionary import DictionaryBuildTruncated

    if isinstance(exc, DictionaryBuildTruncated):
        # The build's checkpoints are on disk; the retry resumes
        # from them and stands a real chance of finishing inside the
        # budget.  A deterministic max_cycles truncation dead-letters
        # after the attempt budget instead of spinning forever.
        return "transient"
    try:
        from repro.robust.chaos import ChaosError
    except ImportError:  # pragma: no cover - chaos ships with the package
        return "permanent"
    return "transient" if isinstance(exc, ChaosError) else "permanent"


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one service instance."""

    state_dir: str
    queue_limit: int = 256
    workers: int = 1
    max_batch: int = 8
    checkpoint_every: int = 16
    #: Service-wide wall-clock cap per job (None = unlimited).  Results
    #: truncated by this nondeterministic limit are never cached.
    max_seconds_per_job: Optional[float] = None
    cache_results: bool = True
    #: Circuits the spec resolver keeps loaded, and decoded dictionaries
    #: ``/diagnose`` keeps for warm queries (two LRUs of this size).
    resolver_capacity: int = 4
    #: Span-trace directory (None = tracing off).  Every job gets its own
    #: trace id; API threads, workers and shard processes append span
    #: files there (render with ``repro inspect``).
    trace_dir: Optional[str] = None
    #: How long a claimed job may go without a heartbeat before the
    #: reaper presumes its worker dead and re-queues the job.  The
    #: executing worker renews its leases every ``lease_ttl / 3`` from its
    #: engine's tracer hooks, and the reaper sweeps every
    #: ``max(lease_ttl / 4, 0.05)`` seconds.
    lease_ttl: float = 30.0
    #: Execution attempts per job before dead-lettering (a job spec's
    #: ``max_attempts`` overrides per job).
    max_attempts: int = 3
    #: Retry backoff: ``base * 2^(attempt-1)`` seconds, capped at
    #: :data:`RETRY_BACKOFF_CAP`, plus uniform jitter in
    #: ``[0, retry_jitter)`` to spread thundering herds.
    retry_backoff_base: float = 0.25
    retry_jitter: float = 0.1


class _LeaseHeartbeat(Tracer):
    """Renews a batch's leases from the engine's per-cycle tracer hook.

    Engines fire hooks whenever a tracer object is present (``enabled``
    only gates expensive hook-argument construction), so overriding just
    ``cycle_end`` with ``enabled = False`` buys a per-cycle callback at
    near-zero instrumentation cost.  The serial oracle fires ``cycle_end``
    only in its good-machine pass; its faulty-machine loop reports one
    bulk ``fault_evals(None, n)`` per machine cycle, so for a serial run
    :meth:`run_start` makes that hook beat too.  Every other engine calls
    ``fault_evals`` per gate and keeps the base no-op.  ``telemetry()``
    stays the base ``None``, so heartbeating never attaches telemetry to
    the result and the serialized outcome remains bit-identical to an
    untracered run.
    """

    enabled = False

    def __init__(self, renew: Callable[[], None], every: float) -> None:
        self._renew = renew
        self._every = every
        self._last = time.monotonic()

    def run_start(self, engine: str, circuit: str) -> None:
        # One heartbeat serves one batch, and a batch runs one engine.
        if engine == "serial":
            self.fault_evals = self._beat  # type: ignore[method-assign]

    def cycle_end(self, cycle: int, **stats: object) -> None:
        self._beat()

    def _beat(self, gate: Optional[int] = None, count: int = 1) -> None:
        """Renew the leases at most once per ``every`` seconds; takes
        ``fault_evals``'s arguments so :meth:`run_start` can install it as
        that hook."""
        now = time.monotonic()
        if now - self._last >= self._every:
            self._last = now
            try:
                self._renew()
            except Exception:  # noqa: BLE001 - liveness must not kill the run
                pass


class FaultSimService:
    """One serving instance over a durable state directory."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        os.makedirs(config.state_dir, exist_ok=True)
        self.store = JobStore(config.state_dir)
        self.queue = JobQueue(config.queue_limit)
        self.cache = ResultCache(os.path.join(config.state_dir, "cache"))
        self.checkpoints_dir = os.path.join(config.state_dir, "checkpoints")
        os.makedirs(self.checkpoints_dir, exist_ok=True)
        self.batcher = Batcher(self.store, config.max_batch)
        self.resolver = SpecResolver(config.resolver_capacity)
        self.metrics = ServiceMetrics()
        self.spans: Optional[SpanWriter] = (
            SpanWriter(config.trace_dir, label="serve")
            if config.trace_dir is not None
            else None
        )
        self._workers: List[threading.Thread] = []
        self._stop = threading.Event()
        self._draining = threading.Event()
        #: Serializes claim / renew / reap / finish transitions so the
        #: reaper and the workers never race a job's lease state.
        self._reap_lock = threading.Lock()
        self._reaper: Optional[threading.Thread] = None
        #: Decoded dictionaries by cache key, least recently used first;
        #: API threads share it, hence the lock.
        self._dictionaries: "OrderedDict[str, FaultDictionary]" = OrderedDict()
        self._dictionaries_lock = threading.Lock()

    # -- submission -----------------------------------------------------

    def submit(self, payload: dict) -> Tuple[JobRecord, bool]:
        """Accept one job; returns ``(record, created)``.

        ``created`` is False when an idempotency key matched an existing
        job, which is returned unchanged.  Raises :class:`SpecError` for
        malformed payloads, :class:`QueueFull` under backpressure, and
        :class:`ServiceDraining` once :meth:`begin_drain` has run.
        """
        if self._draining.is_set():
            raise ServiceDraining()
        spec = JobSpec.from_payload(payload)
        if spec.idempotency_key is not None:
            existing = self.store.by_idempotency_key(spec.idempotency_key)
            if existing is not None:
                return existing, False
        record = JobRecord(
            job_id=self.store.new_job_id(),
            spec=spec.to_payload(),
            priority=spec.priority,
            idempotency_key=spec.idempotency_key,
        )
        if spec.deadline_seconds is not None:
            record.deadline_at = record.created_at + spec.deadline_seconds
        if self.spans is not None:
            record.trace_id = TraceContext.new_trace().trace_id
        if self.config.cache_results and self._serve_from_cache(record, spec):
            self.metrics.submitted()
            return record, True
        # The record must be durable before its id is visible to workers;
        # a refused submission is rolled back so backpressure leaves no trace.
        self.store.save(record)
        try:
            self.queue.push(record.job_id, record.priority)
        except QueueFull:
            self.store.delete(record.job_id)
            self.metrics.rejected()
            raise
        self.metrics.submitted()
        return record, True

    def _serve_from_cache(self, record: JobRecord, spec: JobSpec) -> bool:
        """Finish *record* from the cache at submit time when possible."""
        started = time.perf_counter()
        resolved = self.resolver.resolve(spec)
        key = cache_key(spec, resolved.circuit, resolved.tests, resolved.faults)
        record.cache_key = key
        blob = self.cache.get(key)
        self.metrics.phase("setup", time.perf_counter() - started)
        if blob is None:
            return False
        self.store.write_result(record.job_id, blob)
        record.state = "done"
        record.cache_hit = True
        record.finished_at = time.time()
        record.summary = _summary_from_blob(blob, cached=True)
        self.store.save(record)
        self.metrics.cache_hit()
        self.metrics.completed(simulated=False, counters=None)
        self._emit_job_span(record)
        return True

    # -- queries --------------------------------------------------------

    def status(self, job_id: str) -> Optional[JobRecord]:
        return self.store.get(job_id)

    def result_bytes(self, job_id: str) -> Optional[bytes]:
        return self.store.read_result(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running or finished jobs are immutable."""
        record = self.store.get(job_id)
        if record is None or record.state != "queued":
            return False
        if not self.queue.cancel(job_id):
            return False
        record.state = "cancelled"
        record.finished_at = time.time()
        self.store.save(record)
        self.metrics.cancelled()
        return True

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot(
            self.queue.depth(),
            self.queue.capacity,
            leases=self._lease_stats(),
            draining=self.draining,
        )

    def health(self) -> dict:
        depth = self.queue.depth()
        capacity = self.queue.capacity
        return {
            "status": "draining" if self.draining else "ok",
            "draining": self.draining,
            "version": package_version(),
            "started_at": self.metrics.started_at,
            "uptime_seconds": time.time() - self.metrics.started_at,
            "workers_alive": sum(1 for w in self._workers if w.is_alive()),
            "workers_configured": self.config.workers,
            "queue_depth": depth,
            "queue_capacity": capacity,
            "queue_saturation": depth / capacity if capacity else 0.0,
            "reaper_last_run": self.metrics.reaper_last_run,
            "jobs": self.store.counts(),
        }

    def _lease_stats(self) -> dict:
        """Active lease count and the age of the stalest one.

        Age is measured since the last grant or renewal (``expires_at -
        ttl``), so a rising ``oldest_age_seconds`` means some worker has
        stopped heartbeating and the reaper is about to act.
        """
        now = time.time()
        active = 0
        oldest = 0.0
        for record in self.store.all_records():
            if record.lease_owner is None or record.state in TERMINAL_STATES:
                continue
            active += 1
            if record.lease_expires_at is not None:
                granted = record.lease_expires_at - self.config.lease_ttl
                oldest = max(oldest, now - granted)
        return {"active": active, "oldest_age_seconds": oldest}

    # -- recovery -------------------------------------------------------

    def recover(self) -> int:
        """Re-queue every non-terminal job from a previous process.

        Jobs found ``running`` belonged to a killed worker: they go back
        to ``queued`` and their next attempt resumes from the per-job
        checkpoint.  Returns the number of jobs re-queued.
        """
        requeued = 0
        for record in self.store.all_records():
            if record.state in TERMINAL_STATES:
                continue
            if record.state == "running" or record.lease_owner is not None:
                # Any surviving lease belonged to the dead process.
                record.state = "queued"
                record.clear_lease()
                record.next_retry_at = None
                self.store.save(record)
            try:
                self.queue.push(record.job_id, record.priority)
            except QueueFull:
                break  # the rest stay durable; a later recover() retries
            requeued += 1
        return requeued

    # -- execution ------------------------------------------------------

    def process_once(self, timeout: Optional[float] = 0.0) -> int:
        """Claim one batch and run it to completion; returns jobs finished."""
        if self._draining.is_set():
            return 0
        head_id = self.queue.pop(timeout=timeout)
        if head_id is None:
            return 0
        batch = self.batcher.take(self.queue, head_id)
        if not batch:
            return 0
        # Claim the whole batch up front: every member gets a lease under
        # one owner id, so a worker death strands no queue-mate — the
        # reaper reclaims all of them by lease expiry.
        owner = f"{os.getpid()}:{threading.current_thread().name}:{os.urandom(4).hex()}"
        now = time.time()
        claimed: List[JobRecord] = []
        with self._reap_lock:
            for record in batch:
                current = self.store.get(record.job_id)
                if current is None or current.state != "queued":
                    continue  # cancelled, reaped or double-pushed meanwhile
                current.lease_owner = owner
                current.lease_expires_at = now + self.config.lease_ttl
                self.store.save(current)
                claimed.append(current)
        if not claimed:
            return 0
        self.metrics.batch(len(claimed))
        # One shared circuit instantiation for the whole batch: the head's
        # parse/levelize warms the resolver entry every batch-mate reuses.
        # A warm-up failure (bad inline netlist, say) is not handled here:
        # each job's own resolve raises it again inside _execute_job, where
        # classification and the lease bookkeeping apply.
        try:
            self.resolver.circuit_for(JobSpec.from_payload(claimed[0].spec))
        except Exception:  # noqa: BLE001
            pass
        heartbeat = _LeaseHeartbeat(
            lambda: self._renew_leases(claimed, owner),
            self.config.lease_ttl / 3.0,
        )
        for record in claimed:
            self._execute_job(
                record, batch_size=len(claimed), owner=owner, heartbeat=heartbeat
            )
        return len(claimed)

    def _renew_leases(self, records: List[JobRecord], owner: str) -> None:
        """Heartbeat: extend the lease of every batch member still owned.

        Works on fresh store copies under the reap lock, so a renewal can
        never resurrect a lease the reaper has already reassigned.
        """
        now = time.time()
        with self._reap_lock:
            for record in records:
                current = self.store.get(record.job_id)
                if (
                    current is None
                    or current.lease_owner != owner
                    or current.state in TERMINAL_STATES
                ):
                    continue
                current.lease_expires_at = now + self.config.lease_ttl
                self.store.save(current)
                self.metrics.lease_renewed()

    # -- the reaper -----------------------------------------------------

    def reap(self) -> int:
        """One sweep over the store; returns lease/retry actions taken.

        Three rules, all under the reap lock:

        1. ``running`` with an expired lease — unless the job's checkpoint
           mtime shows recent progress (shard processes heartbeat through
           checkpoint writes) — is re-queued for a checkpoint resume, or
           dead-lettered once its attempt budget is spent.
        2. ``queued`` with an expired lease is a stranded batch-mate
           (claimed, never started): back into the queue, attempts intact.
        3. ``queued``, unleased, absent from the live queue, and past its
           backoff time (or the requeue grace) is pushed — this is how
           backoff retries and overflow re-queues actually re-enter.
        """
        now = time.time()
        actions = 0
        with self._reap_lock:
            for record in self.store.all_records():
                if record.state == "running":
                    actions += self._reap_running(record, now)
                elif record.state == "queued":
                    actions += self._reap_queued(record, now)
        self.metrics.reaper_ran(time.time())
        return actions

    def _reap_running(self, record: JobRecord, now: float) -> int:
        if not record.lease_is_expired(now):
            return 0
        # Shard processes cannot renew a lease in this process's memory;
        # an advancing checkpoint file is their implicit heartbeat.
        mtime = latest_checkpoint_mtime(self._checkpoint_path(record.job_id))
        if mtime is not None and mtime + self.config.lease_ttl > now:
            record.lease_expires_at = mtime + self.config.lease_ttl
            self.store.save(record)
            self.metrics.lease_renewed()
            return 0
        self.metrics.lease_expired()
        record.note_error(
            f"lease expired at attempt {record.attempts} "
            f"(owner {record.lease_owner}); worker presumed dead or hung",
            kind="lease",
        )
        self._span_event(record, "lease_expired", owner=record.lease_owner)
        if record.attempts >= self._max_attempts(record):
            return self._dead_letter(record)
        record.state = "queued"
        record.clear_lease()
        self.store.save(record)
        self.metrics.retried()
        self._span_event(record, "requeue", reason="lease_expired")
        try:
            self.queue.push(record.job_id, record.priority)
        except QueueFull:
            pass  # stays durably queued; rule 3 pushes it when room frees
        return 1

    def _reap_queued(self, record: JobRecord, now: float) -> int:
        if record.lease_owner is not None:
            # Batch-claimed but never started: its worker died with the
            # batch in hand.  Reclaim by expiry, attempts unchanged.
            if not record.lease_is_expired(now):
                return 0
            self.metrics.lease_expired()
            record.clear_lease()
            self.store.save(record)
            self._span_event(record, "requeue", reason="stranded_batch_mate")
            try:
                self.queue.push(record.job_id, record.priority)
            except QueueFull:
                pass
            return 1
        if self.queue.contains(record.job_id):
            return 0
        if record.next_retry_at is not None:
            if record.next_retry_at > now:
                return 0  # backoff still running
        elif record.created_at + REQUEUE_GRACE > now:
            return 0  # possibly inside the submit save-then-push window
        record.next_retry_at = None
        self.store.save(record)
        try:
            self.queue.push(record.job_id, record.priority)
        except QueueFull:
            return 0
        self._span_event(record, "requeue", reason="backoff_elapsed")
        return 1

    def _max_attempts(self, record: JobRecord) -> int:
        value = record.spec.get("max_attempts")
        return int(value) if value is not None else self.config.max_attempts

    def _dead_letter(self, record: JobRecord) -> int:
        """Terminal transition into ``dead``; caller holds the reap lock."""
        record.state = "dead"
        record.clear_lease()
        record.next_retry_at = None
        record.finished_at = time.time()
        self.store.save(record)
        self.metrics.dead_lettered()
        self._span_event(record, "dead_letter", attempts=record.attempts)
        self._emit_job_span(record)
        return 1

    def _reaper_loop(self) -> None:
        interval = max(self.config.lease_ttl / 4.0, 0.05)
        while not self._stop.wait(interval):
            try:
                self.reap()
            except Exception:  # noqa: BLE001 - the reaper must survive sweeps
                continue

    # -- drain and resurrection ----------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop claiming new work; in-flight batches run to completion.

        Subsequent :meth:`submit` calls raise :class:`ServiceDraining`
        (HTTP 503 + Retry-After) and ``/healthz`` reports ``draining``.
        Queued-but-unclaimed jobs stay durably queued for the next
        process; their checkpoints (if any) make the hand-off seamless.
        """
        self._draining.set()

    def await_drained(self, timeout: float = 30.0) -> bool:
        """Block until the worker pool has retired; True when it has."""
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        return not any(worker.is_alive() for worker in self._workers)

    def retry_job(self, job_id: str) -> bool:
        """Resurrect a ``dead`` (or ``failed``) job with a fresh attempt
        budget; its bounded error history is kept for the audit trail.
        Returns False when the job is missing or not resurrectable."""
        with self._reap_lock:
            record = self.store.get(job_id)
            if record is None or record.state not in ("dead", "failed"):
                return False
            prior = record.state
            record.state = "queued"
            record.attempts = 0
            record.clear_lease()
            record.next_retry_at = None
            record.finished_at = None
            self.store.save(record)
        try:
            self.queue.push(record.job_id, record.priority)
        except QueueFull:
            pass  # durably queued; the reaper pushes it when room frees
        self.metrics.resurrected()
        self._span_event(record, "resurrect", prior_state=prior)
        return True

    def requeue_dead(self) -> int:
        """Resurrect every dead-lettered job; returns how many."""
        count = 0
        for record in self.store.all_records():
            if record.state == "dead" and self.retry_job(record.job_id):
                count += 1
        return count

    def drain(self) -> int:
        """Process queued work in the calling thread until the queue is empty."""
        done = 0
        while True:
            processed = self.process_once(timeout=0.0)
            if processed == 0:
                return done
            done += processed

    def start(self) -> None:
        """Launch the background worker pool and the lease reaper."""
        self._stop.clear()
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        if self._reaper is None or not self._reaper.is_alive():
            self._reaper = threading.Thread(
                target=self._reaper_loop, name="serve-reaper", daemon=True
            )
            self._reaper.start()

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        for worker in self._workers:
            worker.join(timeout=timeout)
        self._workers = [w for w in self._workers if w.is_alive()]
        if self._reaper is not None:
            self._reaper.join(timeout=timeout)
            self._reaper = None
        if self.spans is not None:
            self.spans.close()

    def _worker_loop(self) -> None:
        while not self._stop.is_set() and not self._draining.is_set():
            try:
                self.process_once(timeout=0.2)
            except Exception:  # job-level failures are already recorded
                continue

    # -- the per-job execution path ------------------------------------

    def _checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.checkpoints_dir, f"{job_id}.ckpt")

    def _execute_job(
        self,
        record: JobRecord,
        batch_size: int,
        owner: Optional[str] = None,
        heartbeat: Optional[Tracer] = None,
    ) -> None:
        """Run one claimed job to a terminal state.

        Worker death (``KeyboardInterrupt``/``CampaignInterrupted``, i.e.
        anything that is not a plain ``Exception``) propagates and leaves
        the record ``running`` with its checkpoint on disk and its lease
        ticking — the state both :meth:`recover` and the reaper turn into
        a resumed attempt.  Ordinary failures are classified: transient
        ones re-queue with backoff until the attempt budget dead-letters
        them, permanent ones mark the job ``failed`` on the spot.  Every
        outcome transition is fenced by lease ownership, so a worker that
        lost its lease (it hung past the TTL and woke up) discards its
        result instead of clobbering the retry's.
        """
        spec = JobSpec.from_payload(record.spec)
        record.state = "running"
        record.started_at = time.time()
        record.attempts += 1
        record.batch_size = batch_size
        record.next_retry_at = None
        self.store.save(record)
        self.metrics.phase("queue_wait", record.started_at - record.created_at)
        root = self._job_root(record)
        if self.spans is not None and root is not None:
            self.spans.emit(
                "queue_wait",
                root.child(),
                record.created_at,
                record.started_at,
                job=record.job_id,
            )
        try:
            started = time.perf_counter()
            setup_wall = time.time()
            resolved = self.resolver.resolve(spec)
            key = cache_key(spec, resolved.circuit, resolved.tests, resolved.faults)
            record.cache_key = key
            self.metrics.phase("setup", time.perf_counter() - started)
            if self.spans is not None and root is not None:
                self.spans.emit(
                    "setup",
                    root.child(),
                    setup_wall,
                    time.time(),
                    circuit=resolved.circuit.name,
                )

            if self.config.cache_results:
                blob = self.cache.get(key)
                if blob is not None:  # in-flight duplicate finished first
                    self.store.write_result(record.job_id, blob)
                    self._finish(
                        record, blob, cache_hit=True, counters=None, owner=owner
                    )
                    return
                self.metrics.cache_miss()

            simulate_started = time.perf_counter()
            simulate_wall = time.time()
            sim_ctx = root.child() if root is not None else None
            result = self._simulate(record, resolved, sim_ctx, heartbeat)
            self.metrics.phase("simulate", time.perf_counter() - simulate_started)
            if self.spans is not None and sim_ctx is not None:
                self.spans.emit(
                    "simulate",
                    sim_ctx,
                    simulate_wall,
                    time.time(),
                    engine=result.engine,
                    jobs=spec.jobs,
                    detected=result.num_detected,
                )

            serialize_started = time.perf_counter()
            serialize_wall = time.time()
            if spec.dictionary is not None:
                blob = self._encode_dictionary(spec, resolved, result)
            else:
                blob = serialize_result(result, resolved.circuit)
            self.store.write_result(record.job_id, blob)
            if self.spans is not None and root is not None:
                self.spans.emit(
                    "serialize", root.child(), serialize_wall, time.time()
                )
            if self.config.cache_results and not result.truncated:
                store_wall = time.time()
                self.cache.put(key, blob)
                if self.spans is not None and root is not None:
                    self.spans.emit(
                        "cache_store", root.child(), store_wall, time.time()
                    )
            self.metrics.phase(
                "serialize", time.perf_counter() - serialize_started
            )
            if spec.dictionary is not None:
                self.metrics.phase(
                    "dictionary_build", time.perf_counter() - serialize_started
                )
                record.summary = _summary_from_blob(blob, cached=False)
            else:
                record.summary = result.summary()
            self._finish(
                record, blob, cache_hit=False, counters=result.counters, owner=owner
            )
            self._cleanup_checkpoints(record.job_id)
        except Exception as exc:
            self._handle_failure(record, exc, owner)

    def _handle_failure(
        self, record: JobRecord, exc: Exception, owner: Optional[str]
    ) -> None:
        """Classify one attempt's failure and route the job accordingly."""
        kind = classify_failure(exc)
        if isinstance(exc, CheckpointError):
            # A torn checkpoint, or one written under another partition,
            # cannot seed the retry; start the job over.
            self._cleanup_checkpoints(record.job_id)
        with self._reap_lock:
            if not self._still_owner(record, owner):
                self.metrics.lease_lost()
                self._span_event(record, "lease_lost", owner=owner)
                return
            record.note_error(f"{type(exc).__name__}: {exc}", kind=kind)
            record.clear_lease()
            if kind == "transient" and record.attempts < self._max_attempts(record):
                delay = min(
                    RETRY_BACKOFF_CAP,
                    self.config.retry_backoff_base * (2.0 ** (record.attempts - 1)),
                )
                # Jitter perturbs retry *scheduling* only, never results.
                delay += random.uniform(0.0, self.config.retry_jitter)  # codelint: ok
                record.state = "queued"
                record.next_retry_at = time.time() + delay
                self.store.save(record)
                self.metrics.retried()
                self._span_event(
                    record,
                    "retry",
                    kind=kind,
                    attempt=record.attempts,
                    delay_seconds=round(delay, 6),
                )
                return
            if kind == "transient":
                self._dead_letter(record)
                return
            record.state = "failed"
            record.finished_at = time.time()
            self.store.save(record)
            self.metrics.failed()
            self._emit_job_span(record)

    def _still_owner(self, record: JobRecord, owner: Optional[str]) -> bool:
        """Lease fence: does the store still credit *owner* with this job?

        ``owner=None`` (direct :meth:`_execute_job` calls in tests and the
        recover path) trusts the caller, preserving the pre-lease contract.
        """
        if owner is None:
            return True
        current = self.store.get(record.job_id)
        return (
            current is not None
            and current.state == "running"
            and current.lease_owner == owner
        )

    def _job_root(self, record: JobRecord) -> Optional[TraceContext]:
        """The job's root trace context, rebuilt from the bare trace id."""
        if self.spans is None or record.trace_id is None:
            return None
        return TraceContext.root_of(record.trace_id)

    def _span_event(self, record: JobRecord, name: str, **attrs: object) -> None:
        """An instantaneous execution-plane marker on the job's trace."""
        root = self._job_root(record)
        if self.spans is None or root is None:
            return
        self.spans.event(name, root, job=record.job_id, **attrs)

    def _emit_job_span(self, record: JobRecord) -> None:
        """Emit the trace's root span covering the job end to end."""
        root = self._job_root(record)
        if self.spans is None or root is None or record.finished_at is None:
            return
        self.spans.emit(
            "job",
            root,
            record.created_at,
            record.finished_at,
            job=record.job_id,
            state=record.state,
            cache_hit=record.cache_hit,
            attempts=record.attempts,
        )

    def _finish(
        self,
        record: JobRecord,
        blob: bytes,
        cache_hit: bool,
        counters: Optional[WorkCounters],
        owner: Optional[str] = None,
    ) -> None:
        with self._reap_lock:
            if not self._still_owner(record, owner):
                # The lease moved on (hung worker past TTL): the retry owns
                # the job now; this result is identical anyway — drop it.
                self.metrics.lease_lost()
                self._span_event(record, "lease_lost", owner=owner)
                return
            record.state = "done"
            record.cache_hit = cache_hit
            record.clear_lease()
            record.next_retry_at = None
            record.finished_at = time.time()
            if cache_hit:
                record.summary = _summary_from_blob(blob, cached=True)
                self.metrics.cache_hit()
            self.store.save(record)
        self.metrics.completed(simulated=not cache_hit, counters=counters)
        self._emit_job_span(record)

    def _simulate(
        self,
        record: JobRecord,
        resolved: ResolvedJob,
        trace_ctx: Optional[TraceContext] = None,
        heartbeat: Optional[Tracer] = None,
    ) -> FaultSimResult:
        """Run one attempt of the job's campaign, resuming where it can."""
        spec = resolved.spec
        budget = None
        if spec.max_cycles is not None or self.config.max_seconds_per_job is not None:
            budget = Budget(
                max_wall_seconds=self.config.max_seconds_per_job,
                max_cycles=spec.max_cycles,
            )
        if record.deadline_at is not None:
            # The deadline composes as a wall budget over the time left;
            # an already-expired deadline truncates at the first cycle
            # boundary — the existing truncated-result contract, which is
            # also why deadline-truncated results are never cached.
            remaining = max(0.0, record.deadline_at - time.time())
            budget = (budget or Budget()).tightened(max_wall_seconds=remaining)
        checkpoint_path: Optional[str] = None
        resume = False
        if resolved.campaign.engine != "serial":
            # The serial oracle has no snapshot support: no checkpoints.
            # Otherwise resume whenever a valid checkpoint exists: retries
            # (attempts > 1) and resurrections (attempts reset to 0) both
            # pick up where the last durable cycle left off, bit-identically.
            checkpoint_path = self._checkpoint_path(record.job_id)
            resume = self._note_resume(record, checkpoint_path)
        return execute(
            replace(
                resolved.campaign,
                budget=budget,
                checkpoint_path=checkpoint_path,
                resume=resume,
                checkpoint_every=self.config.checkpoint_every,
                tracer=heartbeat,
                trace_dir=self.config.trace_dir if trace_ctx is not None else None,
                trace_ctx=trace_ctx,
            )
        )

    def _encode_dictionary(
        self, spec: JobSpec, resolved: ResolvedJob, result: FaultSimResult
    ) -> bytes:
        """Encode a finished dictionary build as a ``repro-dict/1`` artifact.

        A truncated run carries incomplete response signatures, which a
        dictionary must never contain: the build fails *transiently*
        (:func:`classify_failure`) and the retry resumes from the run's
        checkpoints instead of shipping a partial artifact.
        """
        from repro.diagnosis.dictionary import DictionaryBuildTruncated
        from repro.diagnosis.store import encode_dictionary

        if result.truncated:
            raise DictionaryBuildTruncated(
                f"dictionary build stopped early ({result.truncation_reason}); "
                "checkpoints (if any) remain for resume"
            )
        assert result.responses is not None  # a record-mode campaign
        assert spec.dictionary is not None
        blob = encode_dictionary(
            resolved.circuit.name,
            len(resolved.tests),
            result.responses,
            spec.dictionary,
            collapse=spec.collapse,
        )
        self.metrics.dictionary_built()
        return blob

    # -- diagnosis ------------------------------------------------------

    def diagnose(
        self, payload: dict
    ) -> Tuple[int, Optional[dict], Optional[bytes]]:
        """One ``/diagnose`` query; returns ``(status, document, raw)``.

        The payload is a job spec plus the query fields ``failures``
        (required), ``top`` and ``explain``; ``dictionary`` defaults to
        ``"full"`` and ``collapse`` to ``"equivalence"``.  On a warm
        dictionary cache the answer is 200 with the canonical rankings
        bytes — the same bytes ``repro diagnose`` prints for the same
        query.  On a miss the dictionary build is enqueued through the
        ordinary job queue (idempotently, keyed by the dictionary's cache
        key, so concurrent misses share one build) and the answer is 202
        with the job id to poll.
        """
        started = time.perf_counter()
        query = dict(payload)
        failures = query.pop("failures", None)
        if not isinstance(failures, list):
            raise SpecError("'failures' must be a list of observed failures")
        top = query.pop("top", 10)
        if isinstance(top, bool) or not isinstance(top, int) or top < 1:
            raise SpecError("'top' must be a positive integer")
        explain = query.pop("explain", False)
        if not isinstance(explain, bool):
            raise SpecError("'explain' must be a boolean")
        query.setdefault("dictionary", "full")
        query.setdefault("collapse", "equivalence")
        spec = JobSpec.from_payload(query)
        assert spec.dictionary is not None  # defaulted above
        from repro.diagnosis.store import diagnosis_report, parse_observed

        try:
            observed = parse_observed(spec.dictionary, failures)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        resolved = self.resolver.resolve(spec)
        key = cache_key(spec, resolved.circuit, resolved.tests, resolved.faults)
        dictionary = self._decoded_dictionary(key)
        if dictionary is None:
            self.metrics.diagnose_request(dictionary_hit=False)
            build = dict(query)
            build.setdefault("idempotency_key", f"dict-build:{key}")
            record, created = self.submit(build)
            document = {
                "status": "building",
                "job": record.job_id,
                "created": created,
                "cache_key": key,
            }
            return 202, document, None
        self.metrics.diagnose_request(dictionary_hit=True)
        body = diagnosis_report(
            resolved.circuit,
            resolved.tests,
            dictionary,
            observed,
            top=top,
            explain=explain,
        )
        self.metrics.phase("diagnose", time.perf_counter() - started)
        return 200, None, body

    def _decoded_dictionary(self, key: str) -> Optional["FaultDictionary"]:
        """The dictionary cached under *key*, decoded; None before its build.

        Decoded dictionaries (with their signature-class indexes) stay in
        an LRU of ``resolver_capacity`` entries, consulted before the disk
        cache, so a warm query neither reads nor decodes the artifact.
        """
        from repro.diagnosis.store import decode_dictionary

        with self._dictionaries_lock:
            dictionary = self._dictionaries.get(key)
            if dictionary is not None:
                self._dictionaries.move_to_end(key)
                return dictionary
        blob = self.cache.get(key)
        if blob is None:
            return None
        decoded = decode_dictionary(blob)
        with self._dictionaries_lock:
            # A concurrent miss may have decoded it too; keep the first.
            dictionary = self._dictionaries.setdefault(key, decoded)
            self._dictionaries.move_to_end(key)
            while len(self._dictionaries) > self.config.resolver_capacity:
                self._dictionaries.popitem(last=False)
        return dictionary

    def _note_resume(self, record: JobRecord, checkpoint_path: str) -> bool:
        """Whether an attempt can resume, recording the resume cycle.

        A sharded job resumes every shard whose checkpoint survives
        (:func:`repro.campaign.execute` starts the rest fresh), and
        reports the lowest of their cycles.
        """
        cycles: List[int] = []
        for path in checkpoint_files(checkpoint_path):
            try:
                saved = read_checkpoint(path)
            except CheckpointError:
                os.unlink(path)  # torn checkpoint: that run starts over
                continue
            cycles.append(int(saved.payload.get("cycle", 0)))
        if not cycles:
            return False
        record.resumed_from_cycle = min(cycles)
        return True

    def _cleanup_checkpoints(self, job_id: str) -> None:
        for path in checkpoint_files(self._checkpoint_path(job_id)):
            try:
                os.unlink(path)
            except OSError:
                pass


def _dictionary_summary(manifest: dict) -> str:
    return (
        f"dictionary[{manifest['kind']}]: "
        f"{manifest['num_detected']}/{manifest['num_faults']} faults detected "
        f"over {manifest['num_vectors']} vectors"
    )


def _summary_from_blob(blob: bytes, cached: bool) -> str:
    """The job summary of a result this service wrote, from one parse."""
    document = json.loads(blob)
    if isinstance(document, dict) and document.get("schema") == "repro-dict/1":
        text = _dictionary_summary(document["manifest"])
    else:
        text = (
            f"{document['engine']}: "
            f"{document['num_detected']}/{document['num_faults']} "
            f"faults ({100.0 * document['coverage']:.2f}%) in "
            f"{document['num_vectors']} vectors"
        )
    return f"{text} [cache hit]" if cached else text
