"""Stdlib JSON-over-HTTP front-end for the job manager.

Endpoints (all JSON unless noted):

========================  =====================================================
``POST /jobs``            submit a job spec; ``201`` + job document,
                          ``400`` bad spec, ``429`` queue full, ``503`` draining
``GET /jobs``             list the retained jobs (compact documents)
``GET /jobs/<id>``        one job's full status document (``404`` unknown
                          or evicted)
``POST /jobs/<id>/cancel``  cancel a queued/running job
``GET /jobs/<id>/artifact``  the produced artifact (text/plain ``.mdl`` or
                          JSON Pareto front); ``409`` until the job is done
``GET /healthz``          liveness + utilization summary
``GET /metrics``          the full metrics-registry snapshot — the same
                          registry the CLI's ``--metrics-out`` writes
``GET /slo``              live SLO evaluation: attainment, error budget,
                          burn rate, and risk per declared objective
                          (``200`` while within budget, ``503`` on breach)
========================  =====================================================

Built on :class:`http.server.ThreadingHTTPServer` — no dependencies
beyond the standard library, matching the repo's constraint.  Request
handling is thread-per-connection; all shared state lives in the
(locked) :class:`~repro.server.manager.JobManager`.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import quote

from .jobs import JobSpec, JobState, SpecError
from .manager import JobManager, QueueFull, ShuttingDown, UnknownJob

log = logging.getLogger(__name__)

#: Largest request body accepted (a generous bound for inline XMI).
MAX_BODY_BYTES = 16 * 1024 * 1024


def _content_disposition(name: str) -> str:
    """An attachment header value that is safe for any artifact name.

    The name comes from the client (the ``name`` option or the XMI model
    name).  The plain ``filename`` keeps ``[A-Za-z0-9._-]`` and turns
    every other character into ``_``, so no quote, CR/LF or non-Latin-1
    character reaches the header; ``filename*`` (RFC 6266/8187) carries
    the exact name, UTF-8 percent-encoded.
    """
    plain = re.sub(r"[^A-Za-z0-9._-]", "_", name)
    return (
        f'attachment; filename="{plain}"; '
        f"filename*=UTF-8''{quote(name, safe='')}"
    )


class JobServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`JobManager`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], manager: JobManager) -> None:
        super().__init__(address, _Handler)
        self.manager = manager


class _Handler(BaseHTTPRequestHandler):
    server: JobServer  # narrowed for type checkers

    # Keep the default wall-of-text access log out of stdout; route
    # through stdlib logging so ``repro -v serve`` shows it.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        log.info("%s %s", self.address_string(), format % args)

    @property
    def manager(self) -> JobManager:
        return self.server.manager

    # -- plumbing ----------------------------------------------------------

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        **headers: str,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name.replace("_", "-"), value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, document: Any, **headers: str) -> None:
        body = (json.dumps(document, indent=2) + "\n").encode("utf-8")
        self._send(status, body, **headers)

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> Optional[bytes]:
        raw = self.headers.get("Content-Length") or "0"
        if not (raw.isascii() and raw.isdigit()):
            self._send_error(400, f"invalid Content-Length: {raw!r}")
            return None
        length = int(raw)
        if length == 0:
            self._send_error(400, "request body required")
            return None
        if length > MAX_BODY_BYTES:
            self._send_error(413, "request body too large")
            return None
        return self.rfile.read(length)

    # -- routes ------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["jobs"]:
            return self._post_job()
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            return self._post_cancel(parts[1])
        self._send_error(404, f"no such endpoint: POST {self.path}")

    def do_DELETE(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            return self._post_cancel(parts[1])
        self._send_error(404, f"no such endpoint: DELETE {self.path}")

    def do_GET(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["healthz"]:
            return self._get_healthz()
        if parts == ["metrics"]:
            return self._get_metrics()
        if parts == ["slo"]:
            return self._get_slo()
        if parts == ["jobs"]:
            return self._get_jobs()
        if len(parts) == 2 and parts[0] == "jobs":
            return self._get_job(parts[1])
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "artifact":
            return self._get_artifact(parts[1])
        self._send_error(404, f"no such endpoint: GET {self.path}")

    # -- handlers ----------------------------------------------------------

    def _post_job(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            spec = JobSpec.from_dict(json.loads(body.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return self._send_error(400, f"invalid JSON body: {exc}")
        except SpecError as exc:
            return self._send_error(400, str(exc))
        try:
            job = self.manager.submit(spec)
        except QueueFull as exc:
            return self._send_json(429, {"error": str(exc)}, Retry_After="1")
        except ShuttingDown as exc:
            return self._send_error(503, str(exc))
        self._send_json(201, job.to_dict(), Location=f"/jobs/{job.id}")

    def _post_cancel(self, job_id: str) -> None:
        try:
            job = self.manager.cancel(job_id)
        except UnknownJob:
            return self._send_error(404, f"no such job: {job_id}")
        self._send_json(200, job.to_dict())

    def _get_jobs(self) -> None:
        documents = [
            job.to_dict(with_payload=False) for job in self.manager.jobs()
        ]
        self._send_json(200, {"jobs": documents, "count": len(documents)})

    def _get_job(self, job_id: str) -> None:
        try:
            job = self.manager.get(job_id)
        except UnknownJob:
            return self._send_error(404, f"no such job: {job_id}")
        self._send_json(200, job.to_dict())

    def _get_artifact(self, job_id: str) -> None:
        try:
            job = self.manager.get(job_id)
        except UnknownJob:
            return self._send_error(404, f"no such job: {job_id}")
        if job.state is not JobState.DONE or job.outcome is None:
            return self._send_error(
                409,
                f"job {job_id} is {job.state.value}; artifact available "
                "only when done",
            )
        outcome = job.outcome
        content_type = (
            "application/json"
            if outcome.artifact_name.endswith(".json")
            else "text/plain; charset=utf-8"
        )
        self._send(
            200,
            outcome.artifact_text.encode("utf-8"),
            content_type=content_type,
            Content_Disposition=_content_disposition(outcome.artifact_name),
        )

    def _get_healthz(self) -> None:
        stats = self.manager.stats()
        status = 200 if stats["state"] == "serving" else 503
        self._send_json(status, stats)

    def _get_metrics(self) -> None:
        body = (self.manager.metrics.to_json() + "\n").encode("utf-8")
        self._send(200, body)

    def _get_slo(self) -> None:
        document = self.manager.slo_report()
        # Breach surfaces as 503 so a plain HTTP prober (or an alerting
        # rule keyed on status codes) needs no JSON parsing to page.
        status = 503 if document["risk"] == "breach" else 200
        self._send_json(status, document)


def make_server(
    manager: JobManager, host: str = "127.0.0.1", port: int = 8321
) -> JobServer:
    """Bind a :class:`JobServer`; port 0 picks an ephemeral port."""
    server = JobServer((host, port), manager)
    log.info("repro server listening on %s:%d", *server.server_address[:2])
    return server


def serve_until(
    manager: JobManager,
    server: JobServer,
    stop: threading.Event,
) -> None:
    """Run ``server`` until the ``stop`` event is set, then close it.

    The job manager itself is *not* shut down here — the caller decides
    whether to drain (the CLI does, so Ctrl-C/SIGTERM gives running jobs
    a chance to finish and queued specs land in the journal).
    """
    thread = threading.Thread(
        target=server.serve_forever, name="repro-server-http", daemon=True
    )
    thread.start()
    try:
        stop.wait()
    finally:
        server.shutdown()
        thread.join(timeout=2.0)
        server.server_close()
