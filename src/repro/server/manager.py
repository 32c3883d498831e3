"""The job manager: admission, scheduling, timeouts, shutdown.

One :class:`JobManager` is the entire serving brain; the HTTP layer in
:mod:`repro.server.http` is a thin JSON shim over it.  Responsibilities:

- **admission control** — a bounded FIFO queue (``queue_depth``); a full
  queue rejects with :class:`QueueFull` (HTTP 429) instead of letting
  latency grow without bound, and a draining server rejects with
  :class:`ShuttingDown` (HTTP 503);
- **scheduling** — ``workers`` daemon threads pop jobs FIFO; each job
  runs once, and any exception it raises fails it (the flow is
  deterministic, so a second run would fail the same way);
- **timeouts** — a monitor thread marks a job ``timed_out`` the moment
  its wall-clock deadline passes and trips its cancel hook; the executing
  thread notices at its next cooperative checkpoint and its late result
  is discarded;
- **graceful shutdown** — :meth:`shutdown` stops admission, lets running
  jobs drain and journals the still-queued specs;
- **bounded state** — a job releases its inline ``model_xmi`` when it
  reaches a terminal state, and only the :data:`MAX_FINISHED_JOBS` most
  recently finished jobs stay in the table (queued and running jobs are
  never evicted); an evicted id answers like an unknown one.

Everything the manager does is measured through :mod:`repro.obs` under
the ``server.*`` key family (queue-depth/inflight gauges, per-state and
per-kind counters, aggregate and per-kind latency histograms, a
queue-wait histogram), on the same registry the CLI's ``--metrics-out``
writes and ``GET /metrics`` serves.  Traces stitch: each job gets one
``server.job`` root span covering submission to terminal state (opened
at admission, closed from whichever thread finalizes the job), the
execution opens a ``server.job.attempt`` child on the worker thread,
and the executor runs with that span attached as the thread's context —
so flow passes and DSE exploration spans all land in the job's subtree
instead of starting orphan roots.  Worker log records carry ``job_id``
via :func:`repro.obs.log_fields`.

An :class:`~repro.obs.slo.SloEngine` (default:
:func:`~repro.obs.slo.default_server_targets`) evaluates availability
and latency targets against the same registry; ``GET /slo`` serves
:meth:`JobManager.slo_report` and the published ``slo.*`` gauges enrich
``/metrics``.  Only that report and :meth:`JobManager.shutdown` publish
them — job execution never evaluates the engine.
"""

from __future__ import annotations

import collections
import dataclasses
import logging
import threading
import time
from typing import Any, Callable, Deque, Dict, List, Optional

from .. import obs
from ..obs import recorder as _obs
from ..obs.logsetup import log_fields
from ..obs.slo import RISK_LEVELS, SloEngine, default_server_targets
from .executor import JobCancelled, execute
from .jobs import Job, JobOutcome, JobSpec, JobState
from .journal import consume_journal, write_journal

log = logging.getLogger(__name__)

#: How often (seconds) the timeout monitor scans running jobs.
MONITOR_INTERVAL_S = 0.05

#: Finished (terminal) jobs kept for ``GET /jobs/<id>`` and artifact
#: download; older ones are evicted, oldest-finished first.  Sixteen
#: times the default ``queue_depth``: a client that fetches its artifact
#: soon after its job finishes still finds it.
MAX_FINISHED_JOBS = 256


class AdmissionError(Exception):
    """Base of the admission-refusal errors."""


class QueueFull(AdmissionError):
    """The admission queue is at capacity (HTTP 429)."""


class ShuttingDown(AdmissionError):
    """The server is draining and admits no new jobs (HTTP 503)."""


class UnknownJob(KeyError):
    """No job with the requested id exists, or it finished and was
    evicted from the table (HTTP 404)."""


#: Executor signature the manager dispatches to (injectable for tests).
Executor = Callable[..., JobOutcome]


class JobManager:
    """A bounded, observable batch-job scheduler."""

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_depth: int = 16,
        job_timeout_s: float = 60.0,
        journal_path: Optional[str] = None,
        executor: Optional[Executor] = None,
        recorder: Optional["_obs.AnyRecorder"] = None,
        slo: Optional[SloEngine] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("JobManager needs at least 1 worker")
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        self.workers = workers
        self.queue_depth = queue_depth
        self.job_timeout_s = job_timeout_s
        self.journal_path = journal_path
        self._executor: Executor = executor or execute
        # A live registry even outside any obs.use() scope, so /metrics
        # always has real numbers; under the CLI the ambient recorder is
        # picked up and --metrics-out sees the same registry.  Nothing
        # can export the fallback's spans, so it keeps none.
        rec = recorder if recorder is not None else _obs.get()
        self._rec: "_obs.AnyRecorder" = (
            rec if rec.enabled else obs.Recorder(keep_spans=False)
        )
        self.slo = slo or SloEngine(default_server_targets())
        self.slo.attach(self._rec.metrics)
        # Root anchor for job spans: the span open on the constructing
        # thread (under `repro serve` that is the `cli.serve` span), so
        # the whole serving session exports as one rooted tree.
        self._anchor = self._rec.current_span_id()
        self._lock = threading.RLock()
        self._ready = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queue: Deque[Job] = collections.deque()
        self._jobs: Dict[str, Job] = {}
        #: Ids of terminal jobs still in ``_jobs``, oldest-finished first.
        self._finished: Deque[str] = collections.deque()
        self._running: Dict[str, Job] = {}
        self._threads: List[threading.Thread] = []
        self._monitor: Optional[threading.Thread] = None
        self._accepting = False
        self._stopping = False
        self._started_at: Optional[float] = None
        self._recovered = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "JobManager":
        """Spawn workers, replay any journal."""
        with self._lock:
            if self._threads:
                return self
            self._accepting = True
            self._stopping = False
            self._started_at = time.time()
        if self.journal_path:
            for spec in consume_journal(self.journal_path):
                job = self._admit(spec, enforce_depth=False)
                self._recovered += 1
                log.info("recovered journaled job %s (%s)", job.id, spec.kind)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-server-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-server-monitor", daemon=True
        )
        self._monitor.start()
        self._metrics_snapshot()
        return self

    def shutdown(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Stop admission, drain running jobs, journal the queued ones.

        With ``drain`` (the default) the call blocks until every running
        job reaches a terminal state (or ``timeout`` elapses); without it,
        workers are abandoned mid-flight (their results are discarded) —
        either way no queued job is started once shutdown begins.
        Returns ``{"drained": ..., "journaled": ...}``.
        """
        with self._lock:
            self._accepting = False
            self._stopping = True
            # The Job objects, not their ids: a drained job may be
            # evicted from the table before the count below.
            draining = list(self._running.values())
            self._ready.notify_all()
        drained = 0
        if drain:
            deadline = None if timeout is None else time.time() + timeout
            with self._idle:
                while self._running:
                    remaining = (
                        None if deadline is None else deadline - time.time()
                    )
                    if remaining is not None and remaining <= 0:
                        break
                    self._idle.wait(remaining if remaining is not None else 0.5)
                drained = sum(1 for job in draining if job.state.terminal)
        for thread in self._threads:
            thread.join(timeout=1.0)
        self._threads.clear()
        if self._monitor is not None:
            self._monitor.join(timeout=1.0)
            self._monitor = None
        journaled = 0
        with self._lock:
            backlog = [job.spec for job in self._queue]
            self._queue.clear()
        if self.journal_path is not None:
            journaled = write_journal(self.journal_path, backlog)
            if journaled:
                log.info(
                    "journaled %d unfinished job spec(s) to %s",
                    journaled,
                    self.journal_path,
                )
        self._metrics_snapshot()
        # Final SLO evaluation so --metrics-out written after shutdown
        # carries the session's closing slo.* gauges.
        self.slo.evaluate(self._rec.metrics, publish=True)
        return {"drained": drained, "journaled": journaled, "backlog": len(backlog)}

    @property
    def draining(self) -> bool:
        """Whether shutdown has begun (admission closed)."""
        return self._stopping or not self._accepting

    # -- admission ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Admit one validated spec; raises :class:`QueueFull` /
        :class:`ShuttingDown` when admission is refused."""
        return self._admit(spec.validate(), enforce_depth=True)

    def _admit(self, spec: JobSpec, *, enforce_depth: bool) -> Job:
        with self._lock:
            if not self._accepting:
                self._rec.incr("server.jobs.rejected.shutdown")
                raise ShuttingDown("server is shutting down")
            if enforce_depth and len(self._queue) >= self.queue_depth:
                self._rec.incr("server.jobs.rejected.full")
                raise QueueFull(
                    f"admission queue is full ({self.queue_depth} queued)"
                )
            job = Job(spec=spec)
            job.root_span = self._rec.open_span(
                "server.job",
                category="server",
                parent_id=self._anchor,
                start_wall=job.submitted_at,
                job=job.id,
                kind=spec.kind,
            )
            self._jobs[job.id] = job
            self._queue.append(job)
            self._rec.incr("server.jobs.submitted")
            self._metrics_snapshot()
            self._ready.notify()
            return job

    # -- inspection --------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job with ``job_id`` or :class:`UnknownJob` (also once the
        finished job has been evicted)."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJob(job_id) from None

    def jobs(self) -> List[Job]:
        """All retained jobs (live, plus the most recently finished),
        oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready health/utilization summary (``GET /healthz``)."""
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            return {
                "state": "draining" if self.draining else "serving",
                "uptime_s": (
                    time.time() - self._started_at if self._started_at else 0.0
                ),
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "queued": len(self._queue),
                "running": len(self._running),
                "jobs": states,
                "recovered_from_journal": self._recovered,
                "slo_risk": self._last_slo_risk(),
            }

    def _last_slo_risk(self) -> Optional[str]:
        """Overall risk from the last published SLO evaluation, if any."""
        value = self._rec.metrics.gauge_value("slo.risk")
        if value is None:
            return None
        return RISK_LEVELS[min(int(value), len(RISK_LEVELS) - 1)]

    def slo_report(self, *, publish: bool = True) -> Dict[str, Any]:
        """Evaluate the SLO engine against the live registry.

        The ``GET /slo`` document; with ``publish`` (the default) the
        per-objective burn/budget/risk gauges are also written back into
        the registry, enriching ``/metrics`` and ``--metrics-out``.
        """
        return self.slo.evaluate(self._rec.metrics, publish=publish)

    @property
    def metrics(self):
        """The metrics registry every server event lands in."""
        return self._rec.metrics

    # -- cancellation ------------------------------------------------------

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job (idempotent on terminal jobs).

        A queued job is cancelled immediately; a running one is marked
        ``cancelled`` and its cooperative hook is tripped — the executing
        thread abandons the work at its next checkpoint and the late
        result is discarded.
        """
        with self._lock:
            job = self.get(job_id)
            if job.state is JobState.QUEUED:
                job.advance(JobState.CANCELLED)
                job.finished_at = time.time()
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass
                self._finalize_metrics(job)
            elif job.state is JobState.RUNNING:
                job.advance(JobState.CANCELLED)
                job.finished_at = time.time()
                job.cancel_event.set()
                self._finalize_metrics(job)
            return job

    # -- worker internals --------------------------------------------------

    def _next_job(self) -> Optional[Job]:
        """Block for the queue head; ``None`` means exit."""
        with self._ready:
            while not self._queue and not self._stopping:
                self._ready.wait()
            if self._stopping:
                return None
            # Cancelling a queued job removes it from the deque, so the
            # head is always a queued job.
            job = self._queue.popleft()
            job.advance(JobState.RUNNING)
            now = time.time()
            self._rec.hist(
                "server.job.queue_wait", max(0.0, now - job.submitted_at)
            )
            job.started_at = now
            job.deadline = now + (job.spec.timeout_s or self.job_timeout_s)
            self._running[job.id] = job
            self._metrics_snapshot()
            return job

    def _worker_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        cancelled = job.cancel_event.is_set
        root_id = job.root_span.id if job.root_span is not None else None
        try:
            # Adopt the job's root span as this worker thread's context
            # and stamp job correlation on every log record: the
            # execution span — and everything the executor opens beneath
            # it — now stitches into the job's subtree.
            with self._rec.attach(root_id), log_fields(
                job_id=job.id, job_kind=job.spec.kind
            ):
                with self._rec.span(
                    "server.job.attempt", "server", job=job.id
                ):
                    outcome = self._executor(job.spec, cancelled=cancelled)
        except BaseException as exc:  # noqa: BLE001 — full fault barrier
            self._complete(job, error=exc)
        else:
            self._complete(job, outcome=outcome)

    def _complete(
        self,
        job: Job,
        *,
        outcome: Optional[JobOutcome] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Fold one finished execution back into the job table."""
        now = time.time()
        with self._lock:
            self._running.pop(job.id, None)
            if job.state is not JobState.RUNNING:
                # Timed out or cancelled while we were executing: the
                # state transition already happened; drop the late result.
                self._rec.incr("server.jobs.discarded_results")
            elif error is None:
                job.outcome = outcome
                job.advance(JobState.DONE)
                job.finished_at = now
                self._finalize_metrics(job)
            elif isinstance(error, JobCancelled):
                job.advance(JobState.CANCELLED)
                job.finished_at = now
                self._finalize_metrics(job)
            else:
                job.error = f"{type(error).__name__}: {error}"
                job.advance(JobState.FAILED)
                job.finished_at = now
                self._finalize_metrics(job)
            self._metrics_snapshot()
            self._idle.notify_all()

    def _monitor_loop(self) -> None:
        """Mark past-deadline running jobs ``timed_out`` and trip cancel."""
        while True:
            with self._lock:
                if self._stopping and not self._running:
                    return
                now = time.time()
                for job in list(self._running.values()):
                    if (
                        job.state is JobState.RUNNING
                        and job.deadline is not None
                        and now >= job.deadline
                    ):
                        job.advance(JobState.TIMED_OUT)
                        job.finished_at = now
                        job.error = (
                            f"timed out after "
                            f"{job.spec.timeout_s or self.job_timeout_s:.3g}s"
                        )
                        job.cancel_event.set()
                        self._finalize_metrics(job)
                        self._metrics_snapshot()
                        log.warning("job %s %s", job.id, job.error)
            time.sleep(MONITOR_INTERVAL_S)

    # -- metrics -----------------------------------------------------------

    def _finalize_metrics(self, job: Job) -> None:
        """Counters, latency histograms, root-span close, and retirement.

        Called (under the lock) from every path that moves a job to a
        terminal state — worker completion, client cancel, timeout
        monitor — so this is also where the job's submission-to-terminal
        root span closes, whatever thread got there first, and where the
        job releases its inline XMI and joins the bounded finished set.
        """
        state = job.state.value
        kind = job.spec.kind
        self._rec.incr(f"server.jobs.{state}")
        self._rec.incr(f"server.jobs.{state}.{kind}")
        if job.finished_at is not None:
            latency = job.finished_at - job.submitted_at
            self._rec.hist("server.job.latency", latency)
            self._rec.hist(f"server.job.latency.{kind}", latency)
        if job.root_span is not None:
            self._rec.close_span(
                job.root_span,
                error=job.error,
                end_wall=job.finished_at,
                state=state,
            )
        if job.spec.model_xmi is not None:
            # Never served back, and the journal keeps only queued specs.
            job.spec = dataclasses.replace(job.spec, model_xmi=None)
        self._finished.append(job.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            del self._jobs[self._finished.popleft()]

    def _metrics_snapshot(self) -> None:
        self._rec.gauge("server.queue.depth", len(self._queue))
        self._rec.gauge("server.jobs.inflight", len(self._running))
