"""The stdlib-only REST API in front of :class:`FaultSimService`.

Endpoints (all JSON):

========  ======================  =============================================
method    path                    behaviour
========  ======================  =============================================
POST      ``/jobs``               submit a job spec; ``201`` created, ``200``
                                  when an idempotency key matched, ``400`` bad
                                  spec, ``429`` + ``Retry-After`` queue full,
                                  ``503`` + ``Retry-After`` while draining
GET       ``/jobs``               list job summaries
GET       ``/jobs/<id>``          job status
GET       ``/jobs/<id>/result``   canonical result document; ``409`` until the
                                  job reaches ``done``
POST      ``/jobs/<id>/cancel``   cancel a *queued* job; ``409`` otherwise,
                                  ``410`` if the record vanished mid-cancel
POST      ``/jobs/<id>/retry``    resurrect a ``dead`` or ``failed`` job with
                                  a fresh attempt budget; ``409`` otherwise
POST      ``/diagnose``           rank observed failures against a fault
                                  dictionary; ``200`` with the canonical
                                  rankings on a warm dictionary cache,
                                  ``202`` + ``Retry-After`` with the build
                                  job's id on a miss, ``400`` bad query
GET       ``/healthz``            liveness + worker/queue/reaper gauges +
                                  uptime; ``status`` flips to ``draining``
                                  after SIGTERM
GET       ``/metrics``            :meth:`ServiceMetrics.snapshot` document;
                                  with ``Accept: text/plain`` the same metrics
                                  in Prometheus text exposition format
========  ======================  =============================================

The server is a :class:`http.server.ThreadingHTTPServer`, so requests are
served while workers simulate; everything heavier than a dictionary lookup
happens in the service layer.
"""

from __future__ import annotations

import json
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.serve.queue import QueueFull
from repro.serve.service import FaultSimService, ServiceDraining
from repro.serve.spec import SpecError

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)$")
_RESULT_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)/result$")
_CANCEL_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)/cancel$")
_RETRY_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)/retry$")


class ServeHTTPServer(ThreadingHTTPServer):
    """An HTTP server bound to one :class:`FaultSimService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: FaultSimService) -> None:
        super().__init__(address, ServeHandler)
        self.service = service


class ServeHandler(BaseHTTPRequestHandler):
    server: ServeHTTPServer

    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> FaultSimService:
        return self.server.service

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        """Stay silent: requests are not logged."""

    def _send(
        self,
        status: int,
        document: object,
        raw: Optional[bytes] = None,
        retry_after: Optional[int] = None,
    ) -> None:
        body = raw if raw is not None else (json.dumps(document).encode() + b"\n")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, retry_after: Optional[int] = None) -> None:
        self._send(status, {"error": message}, retry_after=retry_after)

    def _read_json(self) -> object:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise SpecError("request body must be a JSON object")
        try:
            return json.loads(self.rfile.read(length))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SpecError(f"bad JSON body: {exc}") from None

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send(200, self.service.health())
            return
        if path == "/metrics":
            self._metrics()
            return
        if path == "/jobs":
            self._send(
                200,
                {
                    "jobs": [
                        record.public_dict()
                        for record in self.service.store.all_records()
                    ]
                },
            )
            return
        match = _RESULT_PATH.match(path)
        if match:
            self._get_result(match.group(1))
            return
        match = _JOB_PATH.match(path)
        if match:
            record = self.service.status(match.group(1))
            if record is None:
                self._error(404, f"no job {match.group(1)!r}")
            else:
                self._send(200, record.public_dict())
            return
        self._error(404, f"no route {path!r}")

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0]
        if path == "/jobs":
            self._submit()
            return
        if path == "/diagnose":
            self._diagnose()
            return
        match = _CANCEL_PATH.match(path)
        if match:
            self._cancel(match.group(1))
            return
        match = _RETRY_PATH.match(path)
        if match:
            self._retry(match.group(1))
            return
        self._error(404, f"no route {path!r}")

    # -- handlers -------------------------------------------------------

    def _metrics(self) -> None:
        """``/metrics``: JSON by default, Prometheus when asked for text.

        Content negotiation keys on ``text/plain`` anywhere in ``Accept``
        (what Prometheus scrapers send); the JSON document stays the
        default and the source of truth — the exposition re-renders it.
        """
        snapshot = self.service.metrics_snapshot()
        accept = self.headers.get("Accept", "")
        if "text/plain" in accept:
            from repro.obs import render_prometheus

            body = render_prometheus(snapshot).encode()
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._send(200, snapshot)

    def _submit(self) -> None:
        api_started = time.time()
        try:
            payload = self._read_json()
            if not isinstance(payload, dict):
                raise SpecError("job payload must be a JSON object")
            record, created = self.service.submit(payload)
        except SpecError as exc:
            self._error(400, str(exc))
            return
        except QueueFull as exc:
            self._error(429, str(exc), retry_after=1)
            return
        except ServiceDraining as exc:
            self._error(503, str(exc), retry_after=5)
            return
        self._emit_api_span(record, api_started)
        self._send(201 if created else 200, record.public_dict())

    def _emit_api_span(self, record: object, started: float) -> None:
        """Span for the API-side handling of one accepted submission."""
        spans = self.service.spans
        trace_id = getattr(record, "trace_id", None)
        if spans is None or trace_id is None:
            return
        from repro.obs import TraceContext

        spans.emit(
            "api POST /jobs",
            TraceContext.root_of(trace_id).child(),
            started,
            time.time(),
            job=getattr(record, "job_id", None),
        )

    def _diagnose(self) -> None:
        """``POST /diagnose``: rankings on a warm cache, 202 on a miss.

        The 200 body is :func:`repro.diagnosis.store.diagnosis_report`'s
        canonical bytes — byte-identical to ``repro diagnose`` for the
        same query.  A miss lazily enqueues the dictionary build through
        the ordinary job queue, so backpressure (429) and draining (503)
        apply exactly as they do to ``POST /jobs``.
        """
        try:
            payload = self._read_json()
            if not isinstance(payload, dict):
                raise SpecError("diagnose payload must be a JSON object")
            status, document, raw = self.service.diagnose(payload)
        except SpecError as exc:
            self._error(400, str(exc))
            return
        except QueueFull as exc:
            self._error(429, str(exc), retry_after=1)
            return
        except ServiceDraining as exc:
            self._error(503, str(exc), retry_after=5)
            return
        self._send(
            status,
            document,
            raw=raw,
            retry_after=(1 if status == 202 else None),
        )

    def _get_result(self, job_id: str) -> None:
        record = self.service.status(job_id)
        if record is None:
            self._error(404, f"no job {job_id!r}")
            return
        if record.state != "done":
            self._error(
                409, f"job {job_id!r} is {record.state}, not done", retry_after=1
            )
            return
        blob = self.service.result_bytes(job_id)
        if blob is None:  # done but blob missing would be a service bug
            self._error(500, f"result for {job_id!r} is missing")
            return
        self._send(200, None, raw=blob)

    def _cancel(self, job_id: str) -> None:
        record = self.service.status(job_id)
        if record is None:
            self._error(404, f"no job {job_id!r}")
            return
        if self.service.cancel(job_id):
            # The record can vanish between cancel and re-read (a racing
            # submit rollback deletes refused records): answer 410, not a
            # 500 from a tripped assertion.
            refreshed = self.service.status(job_id)
            if refreshed is None:
                self._error(410, f"job {job_id!r} was cancelled and removed")
                return
            self._send(200, refreshed.public_dict())
        else:
            self._error(409, f"job {job_id!r} is {record.state}; cannot cancel")

    def _retry(self, job_id: str) -> None:
        record = self.service.status(job_id)
        if record is None:
            self._error(404, f"no job {job_id!r}")
            return
        if not self.service.retry_job(job_id):
            self._error(
                409,
                f"job {job_id!r} is {record.state}; only dead or failed "
                "jobs can be retried",
            )
            return
        refreshed = self.service.status(job_id)
        if refreshed is None:
            self._error(410, f"job {job_id!r} vanished during retry")
            return
        self._send(200, refreshed.public_dict())


def make_server(
    service: FaultSimService, host: str = "127.0.0.1", port: int = 0
) -> ServeHTTPServer:
    """A bound (not yet serving) HTTP server; ``port=0`` picks a free port."""
    return ServeHTTPServer((host, port), service)
