"""Batch synthesis service: the serving layer over the library flow.

The paper frames the UML front-end as the entry point of a persistent
*tool flow* — models in, CAAM/FSM/Java artifacts out.  ``repro.server``
turns the library calls (:func:`repro.core.flow.synthesize`,
:func:`repro.dse.explore.explore`) into a long-lived, load-shedding,
observable service:

- :mod:`.jobs` — the job model: :class:`JobSpec` (what to run),
  :class:`Job` (server-side bookkeeping), and the validated
  ``queued → running → done|failed|cancelled|timed_out`` state machine;
- :mod:`.manager` — :class:`JobManager`: bounded FIFO admission
  (:class:`QueueFull` → HTTP 429), worker threads, wall-clock timeouts
  with cooperative cancellation, graceful drain, and a shutdown journal
  of unfinished specs (:mod:`.journal`); each job runs once;
- :mod:`.executor` — runs specs through the *same* front doors a library
  user calls, so served artifacts are byte-identical to library ones;
- :mod:`.http` — a stdlib-only JSON API (``POST /jobs``,
  ``GET /jobs/<id>``, ``GET /jobs/<id>/artifact``, ``GET /healthz``,
  ``GET /metrics``) behind ``repro serve``.

Minimal embedded use::

    from repro.server import JobManager, JobSpec, make_server

    manager = JobManager(workers=2, queue_depth=8).start()
    job = manager.submit(JobSpec(kind="synthesize", demo="crane"))
    ...
    manager.shutdown()          # drains, journals the backlog

See ``docs/server.md`` for the full API reference and semantics.
"""

from .executor import JobCancelled, execute
from .http import JobServer, make_server, serve_until
from .jobs import Job, JobOutcome, JobSpec, JobState, SpecError, StateError
from .journal import consume_journal, read_journal, write_journal
from .manager import (
    AdmissionError,
    JobManager,
    QueueFull,
    ShuttingDown,
    UnknownJob,
)

__all__ = [
    "AdmissionError",
    "Job",
    "JobCancelled",
    "JobManager",
    "JobOutcome",
    "JobServer",
    "JobSpec",
    "JobState",
    "QueueFull",
    "ShuttingDown",
    "SpecError",
    "StateError",
    "UnknownJob",
    "consume_journal",
    "execute",
    "make_server",
    "read_journal",
    "serve_until",
    "write_journal",
]
