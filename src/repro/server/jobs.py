"""Job model for the batch synthesis service.

A *job* is one unit of admitted work: a :class:`JobSpec` describing what
to run (synthesize or explore, over which model, with which options) plus
the server-side bookkeeping — state, timestamps, errors — that the HTTP
API reports.  Each job runs once.  The state machine is::

    queued ──> running ──> done
       │          ├──────> failed       (the executor raised)
       │          ├──────> cancelled    (client cancel observed)
       │          └──────> timed_out    (wall-clock deadline passed)
       └────────> cancelled             (cancelled before it ever ran)

``done`` / ``failed`` / ``cancelled`` / ``timed_out`` are terminal.  All
transitions are validated by :meth:`Job.advance`; an illegal transition is
a programming error and raises :class:`StateError` rather than corrupting
the table.
"""

from __future__ import annotations

import enum
import itertools
import math
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional

from ..simulink.ecore import _ATTR_FORBIDDEN
from ..simulink.simulator import ENGINES


class JobState(str, enum.Enum):
    """Lifecycle states of a job (string-valued for direct JSON use)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"

    @property
    def terminal(self) -> bool:
        """Whether no further transition can leave this state."""
        return self in _TERMINAL


_TERMINAL: FrozenSet[JobState] = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.TIMED_OUT}
)

#: Legal transitions (see the module diagram).
TRANSITIONS: Dict[JobState, FrozenSet[JobState]] = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.TIMED_OUT,
        }
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
    JobState.TIMED_OUT: frozenset(),
}


class SpecError(ValueError):
    """A job specification that cannot be admitted (HTTP 400)."""


class StateError(RuntimeError):
    """An illegal job state transition was attempted."""


#: Job kinds the executor understands.
KINDS = ("synthesize", "explore", "simulate", "analyze", "codegen")

#: ``synthesize`` options a spec may forward (mirrors the keyword-only
#: signature of :func:`repro.core.flow.synthesize`; ``behaviors`` is
#: excluded — callables don't travel over JSON).
SYNTHESIZE_OPTIONS = frozenset(
    {
        "auto_allocate",
        "infer_channels",
        "insert_barriers",
        "layout",
        "validate",
        "strict",
        "name",
        "use_cache",
    }
)

#: ``explore`` options a spec may forward.
EXPLORE_OPTIONS = frozenset(
    {"max_cpus", "objective", "exhaustive_threshold", "cycles_per_unit"}
)

#: ``simulate`` options a spec may forward.  ``stimuli`` is a list of
#: stimulus objects (Inport name -> sample list), one batch episode each;
#: ``engine`` selects the simulator engine (slot-compiled by default).
SIMULATE_OPTIONS = frozenset(
    {"steps", "stimuli", "monitor", "engine", "use_cache"}
)

#: ``analyze`` options a spec may forward.  ``suppress`` is a list of
#: diagnostic-code patterns (``RA203``, ``RA2xx``, ``RA2*``); ``passes``
#: restricts which registered passes run.
ANALYZE_OPTIONS = frozenset(
    {"passes", "suppress", "require_deployment", "use_cache"}
)

#: ``codegen`` options a spec may forward.  ``languages`` selects the
#: static-schedule backend's targets (subset of ``("c", "java")``);
#: ``auto_allocate`` is forwarded to synthesis.  The job's artifact is
#: the digital-thread trace manifest; the generated sources travel in
#: the result payload.
CODEGEN_OPTIONS = frozenset({"languages", "auto_allocate", "use_cache"})

#: Options that are flags, whichever kind takes them.  Each must be a
#: JSON boolean: ``"yes"`` or ``5`` would run as ``True``, but would key
#: another synthesis-cache entry for the same result.
FLAG_OPTIONS = frozenset(
    {
        "auto_allocate",
        "infer_channels",
        "insert_barriers",
        "layout",
        "validate",
        "strict",
        "use_cache",
        "require_deployment",
    }
)


@dataclass(frozen=True)
class JobSpec:
    """What a job should run — pure data, JSON- and journal-serializable."""

    kind: str
    demo: Optional[str] = None
    model_xmi: Optional[str] = None
    options: Dict[str, Any] = field(default_factory=dict)
    #: Per-job wall-clock budget; ``None`` uses the server default.
    timeout_s: Optional[float] = None

    def validate(self) -> "JobSpec":
        """Return ``self`` if admissible, else raise :class:`SpecError`."""
        if self.kind not in KINDS:
            raise SpecError(
                f"unknown job kind {self.kind!r}; expected one of {KINDS}"
            )
        for name in ("demo", "model_xmi"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise SpecError(
                    f"'{name}' must be a string, not {type(value).__name__}"
                )
        # A lone surrogate survives JSON (``"\ud800"``) but not the
        # UTF-8 encoding every flow applies to the document.
        if self.model_xmi is not None:
            try:
                self.model_xmi.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise SpecError(
                    f"'model_xmi' is not UTF-8 text: {exc}"
                ) from None
        if bool(self.demo) == bool(self.model_xmi):
            raise SpecError(
                "a job needs exactly one model source: 'demo' or 'model_xmi'"
            )
        if not isinstance(self.options, dict):
            raise SpecError("'options' must be an object")
        allowed = {
            "synthesize": SYNTHESIZE_OPTIONS,
            "explore": EXPLORE_OPTIONS,
            "simulate": SIMULATE_OPTIONS,
            "analyze": ANALYZE_OPTIONS,
            "codegen": CODEGEN_OPTIONS,
        }[self.kind]
        unknown = sorted(set(self.options) - allowed)
        if unknown:
            raise SpecError(
                f"unknown {self.kind} option(s) {', '.join(map(repr, unknown))}; "
                f"valid options are {', '.join(sorted(allowed))}"
            )
        for flag in sorted(FLAG_OPTIONS.intersection(self.options)):
            if type(self.options[flag]) is not bool:
                raise SpecError(
                    f"'{flag}' must be true or false, "
                    f"not {self.options[flag]!r}"
                )
        # The name becomes the model's and the artifact's file name.
        name = self.options.get("name")
        if name is not None and not (isinstance(name, str) and name):
            raise SpecError(
                f"'name' must be null or a non-empty string, not {name!r}"
            )
        forbidden = name and _ATTR_FORBIDDEN.search(name)
        if forbidden:
            raise SpecError(
                f"'name' holds {forbidden.group()!r}, which XML 1.0 forbids"
            )
        if self.kind == "explore":
            _check_explore_options(self.options)
        engine = self.options.get("engine")
        if self.kind == "simulate" and engine not in (None, *ENGINES):
            raise SpecError(
                f"'engine' must be null or one of {list(ENGINES)}, "
                f"not {engine!r}"
            )
        # ``true`` would read as one second, and a NaN deadline never
        # passes, so the job could outlive the server's own timeout.
        if self.timeout_s is not None and not _finite_positive(self.timeout_s):
            raise SpecError(
                "'timeout_s' must be a finite number > 0, "
                f"not {self.timeout_s!r}"
            )
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (what the journal persists)."""
        spec: Dict[str, Any] = {"kind": self.kind, "options": dict(self.options)}
        if self.demo:
            spec["demo"] = self.demo
        if self.model_xmi:
            spec["model_xmi"] = self.model_xmi
        if self.timeout_s is not None:
            spec["timeout_s"] = self.timeout_s
        return spec

    @classmethod
    def from_dict(cls, raw: Any) -> "JobSpec":
        """Parse and validate a client/journal payload."""
        if not isinstance(raw, dict):
            raise SpecError("job spec must be a JSON object")
        unknown = sorted(
            set(raw) - {"kind", "demo", "model_xmi", "options", "timeout_s"}
        )
        if unknown:
            raise SpecError(
                f"unknown job field(s) {', '.join(map(repr, unknown))}"
            )
        return cls(
            kind=raw.get("kind", ""),
            demo=raw.get("demo"),
            model_xmi=raw.get("model_xmi"),
            options=raw.get("options") or {},
            timeout_s=raw.get("timeout_s"),
        ).validate()


def _finite_positive(value: Any) -> bool:
    """True for an int or float, not a bool, strictly between 0 and inf."""
    try:
        return type(value) in (int, float) and 0 < float(value) < math.inf
    except OverflowError:  # an integer too large for a float
        return False


def _check_explore_options(options: Dict[str, Any]) -> None:
    """Reject explore option values the explorer cannot take.

    ``type(...)`` tests keep ``true``/``false`` out of the numbers.  NaN
    and infinities are refused too: JSON parsers accept them, but they
    would come back as ``NaN`` metrics, which is not JSON.
    """
    objective = options.get("objective", "latency")
    if objective not in ("latency", "throughput"):
        raise SpecError(
            f"'objective' must be 'latency' or 'throughput', not {objective!r}"
        )
    max_cpus = options.get("max_cpus")
    if max_cpus is not None and not (type(max_cpus) is int and max_cpus >= 1):
        raise SpecError(
            f"'max_cpus' must be null or an integer >= 1, not {max_cpus!r}"
        )
    threshold = options.get("exhaustive_threshold", 8)
    if not (type(threshold) is int and threshold >= 0):
        raise SpecError(
            "'exhaustive_threshold' must be an integer >= 0, "
            f"not {threshold!r}"
        )
    unit = options.get("cycles_per_unit", 50.0)
    if not _finite_positive(unit):
        raise SpecError(
            f"'cycles_per_unit' must be a finite number > 0, not {unit!r}"
        )


@dataclass
class JobOutcome:
    """What a successful execution produced."""

    #: Suggested artifact filename (``crane.mdl``, ``crane.pareto.json``).
    artifact_name: str
    #: The artifact text itself (``.mdl`` or exploration JSON).
    artifact_text: str
    #: JSON-ready result summary served inline by ``GET /jobs/<id>``.
    payload: Dict[str, Any] = field(default_factory=dict)


_seq = itertools.count(1)


def _new_job_id() -> str:
    """Short, unique, monotonically sortable job ids."""
    return f"job-{next(_seq):06d}-{uuid.uuid4().hex[:8]}"


@dataclass
class Job:
    """One admitted job and all its server-side bookkeeping."""

    spec: JobSpec
    id: str = field(default_factory=_new_job_id)
    state: JobState = JobState.QUEUED
    #: Human-readable failure description (state ``failed``/``timed_out``).
    error: Optional[str] = None
    #: Wall-clock deadline of the execution (set when running).
    deadline: Optional[float] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    outcome: Optional[JobOutcome] = None
    #: Cooperative cancellation flag polled by the executor.
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: The job's submission-to-terminal root span (a
    #: :class:`repro.obs.Span`, set by the manager at admission).  The
    #: execution span stitches under it, so one job is one subtree in
    #: the exported Chrome trace.
    root_span: Optional[Any] = field(default=None, repr=False)

    def advance(self, target: JobState) -> None:
        """Transition to ``target``, enforcing the state machine."""
        if target not in TRANSITIONS[self.state]:
            raise StateError(
                f"job {self.id}: illegal transition {self.state.value} -> "
                f"{target.value}"
            )
        self.state = target

    def to_dict(self, *, with_payload: bool = True) -> Dict[str, Any]:
        """The status document ``GET /jobs/<id>`` serves."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "kind": self.spec.kind,
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if self.spec.demo:
            doc["demo"] = self.spec.demo
        if self.state is JobState.DONE and self.outcome is not None:
            doc["artifact"] = self.outcome.artifact_name
            if with_payload:
                doc["result"] = dict(self.outcome.payload)
        return doc
