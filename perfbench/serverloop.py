"""Drive a fresh ``repro serve`` process over real HTTP in a closed loop.

The single client submits its next job only after the previous job's
artifact has arrived.  Every HTTP call is timed on the client; the
server's own ``submitted_at``/``started_at``/``finished_at``
stamps come from the same host clock (``time.time``), so server-side
intervals and client-side ones can be subtracted.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import Job

#: Seconds a boot may take before the run is abandoned.
BOOT_TIMEOUT_S = 60.0
#: Seconds one job may take from submission to ``done``.
JOB_TIMEOUT_S = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_TERMINAL = {"done", "failed", "cancelled", "timed_out"}


class BenchError(RuntimeError):
    """The benchmark itself cannot go on (server did not boot, ...)."""


def request(
    port: int, method: str, path: str, body: Optional[bytes] = None
) -> Tuple[int, bytes]:
    """One HTTP exchange on a fresh connection (the server speaks 1.0)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """One ``repro serve --port 0`` child process."""

    def __init__(self, root: str) -> None:
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self.port = 0

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self) -> None:
        """Read the bound port from stdout, then poll ``/healthz``."""
        line = self.process.stdout.readline().decode()
        if "listening on" not in line:
            raise BenchError(f"server did not start: {line.strip()!r}")
        self.port = int(line.rsplit(":", 1)[1])
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if request(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise BenchError("server never answered /healthz")

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


@dataclass
class JobRecord:
    """What the client saw of one job."""

    job: Job
    t_send: float = 0.0
    submit_s: float = 0.0
    poll_s: List[float] = field(default_factory=list)
    t_seen_done: float = 0.0
    artifact_s: float = 0.0
    document: Dict[str, Any] = field(default_factory=dict)
    artifact: bytes = b""
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        """``POST`` sent → server ``finished_at``, plus the artifact GET."""
        return self.document["finished_at"] - self.t_send + self.artifact_s


#: A span the client recorded: (trace id, name, start, end), wall clock.
ClientSpan = Tuple[int, str, float, float]


def run_job(
    port: int,
    job: Job,
    poll_interval: float,
    spans: Optional[List[ClientSpan]] = None,
) -> JobRecord:
    """Submit, poll until terminal, fetch the artifact."""
    record = JobRecord(job)

    def call(name: str, method: str, path: str, body=None):
        start = time.time()
        status, payload = request(port, method, path, body)
        end = time.time()
        if spans is not None:
            spans.append((job.index, name, start, end))
        if not 200 <= status < 300:
            raise BenchError(
                f"{method} {path} answered {status}: {payload[:200]!r}"
            )
        return end - start, payload

    try:
        record.t_send = time.time()
        record.submit_s, payload = call(
            "server.http.submit", "POST", "/jobs", job.body
        )
        job_id = json.loads(payload)["id"]
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            time.sleep(poll_interval)
            took, payload = call("server.http.poll", "GET", f"/jobs/{job_id}")
            record.poll_s.append(took)
            document = json.loads(payload)
            if document["state"] in _TERMINAL:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"job {job_id} still {document['state']}")
        record.t_seen_done = time.time()
        record.document = document
        if document["state"] != "done":
            raise BenchError(
                f"job {job_id} ended {document['state']}: {document['error']}"
            )
        record.artifact_s, record.artifact = call(
            "server.http.artifact", "GET", f"/jobs/{job_id}/artifact"
        )
    except (
        BenchError,
        OSError,
        ValueError,
        KeyError,
        http.client.HTTPException,
    ) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    return record


#: Wall time and server CPU are sampled at the start and whenever a
#: quarter of the timed jobs has completed; the quarters give the
#: server's CPU drift over the run.
QUARTERS = 4


@dataclass
class LoopResult:
    records: List[JobRecord]
    #: (wall seconds, server CPU seconds) at the start and after each
    #: quarter's last completion.
    marks: List[Tuple[float, float]]
    peak_rss_mb: float
    spans: List[ClientSpan]

    @property
    def jobs_per_s(self) -> float:
        return len(self.records) / (self.marks[-1][0] - self.marks[0][0])

    @property
    def cpu_ms_per_job(self) -> float:
        return (self.marks[-1][1] - self.marks[0][1]) * 1e3 / len(self.records)

    def quarters(self) -> List[Tuple[int, float]]:
        """(jobs, server CPU seconds) of each quarter of the run."""
        bounds = quarter_bounds(len(self.records))
        return [
            (hi - lo, c1 - c0)
            for lo, hi, (_, c0), (_, c1) in zip(
                [0] + bounds, bounds, self.marks, self.marks[1:]
            )
        ]


def quarter_bounds(jobs: int) -> List[int]:
    """Completion counts that close each quarter (none is empty)."""
    count = min(QUARTERS, jobs)
    return [round(jobs * (k + 1) / count) for k in range(count)]


#: Jobs in flight: one client.  Two clients saturate both CPUs of a
#: 2-vCPU host, and the figures then follow whatever else the host
#: runs: six interleaved pairs of verify-warm runs gave an interquartile
#: spread of 0.33-0.42 of the median for ``jobs_per_s`` and latency with
#: two clients, against 0.09-0.19 with one.
IN_FLIGHT = 1


def closed_loop(
    server: Server,
    jobs: List[Job],
    poll_interval: float,
    *,
    traced: bool = False,
    tamper: Optional[Callable[[int, bytes], bytes]] = None,
) -> LoopResult:
    """Run ``jobs`` in order; each is sent once the previous artifact is in.

    Wall time and server CPU are sampled whenever a quarter of the jobs
    has completed.  ``tamper`` rewrites a received artifact (the
    benchmark's tests use it to prove the oracle rejects a corrupted
    one).
    """
    records: List[JobRecord] = []
    spans: List[ClientSpan] = []
    bounds = set(quarter_bounds(len(jobs)))
    marks = [(time.perf_counter(), server.cpu_s())]
    for job in jobs:
        record = run_job(
            server.port, job, poll_interval, spans if traced else None
        )
        if tamper is not None and record.error is None:
            record.artifact = tamper(job.index, record.artifact)
        records.append(record)
        if len(records) in bounds:
            marks.append((time.perf_counter(), server.cpu_s()))
    return LoopResult(
        records=records,
        marks=marks,
        peak_rss_mb=server.peak_rss_mb(),
        spans=spans,
    )


def boot(
    root: str, warmup: List[Job], poll_interval: float
) -> Tuple[Server, float, List[JobRecord]]:
    """Start a server and run the warm-up jobs.

    Returns the server, the set-up time and the warm-up records (for the
    oracle).  Set-up time runs from spawning the process until
    ``/healthz`` answers and every warm-up job's artifact has arrived.
    """
    server = Server(root)
    try:
        server.wait_ready()
        records = [run_job(server.port, job, poll_interval) for job in warmup]
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started, records
