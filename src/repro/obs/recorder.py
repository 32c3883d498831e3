"""Span tracer and the module-level recorder switch.

The instrumentation contract for the whole package:

- every instrumented call site fetches the *current recorder* with
  :func:`get` and uses its ``span`` / ``incr`` / ``gauge`` / ``observe``
  API;
- by default the current recorder is the :data:`NULL` singleton, whose
  every operation is a no-op returning shared immutable objects — hot
  paths pay one attribute lookup and one call, nothing else (no
  allocation, no clock reads, no file I/O);
- enabling observability (``repro --trace-out`` / ``--metrics-out``, or
  :func:`enable` / :func:`use` from library code) swaps in a
  :class:`Recorder` that collects nested :class:`Span` records and feeds a
  :class:`~repro.obs.metrics.MetricsRegistry`.  A recorder built with
  ``keep_spans=False`` still times every span into the registry but
  keeps none of them, so a long session (``repro serve`` without
  ``--trace-out``) holds constant memory.

Spans nest through an explicit **per-thread** stack on the recorder: the
span a thread opened last becomes the parent of the next span *that
thread* opens, which is exactly the call-tree shape the Chrome-trace
exporter needs.  Concurrent threads (the batch server's job workers)
each carry their own context, so their spans never cross-link by
accident; explicit stitching across threads uses
``parent_id=`` overrides, :meth:`Recorder.attach`, and the
:meth:`Recorder.open_span` / :meth:`Recorder.close_span` pair (a span
opened on one thread and closed from another).  Every closed span also
records its wall duration as a timer observation under its own name, so
pass timings show up in the metrics JSON for free.

Every recorder carries a ``trace_id`` (one per observability session);
the structured-logging layer (:mod:`repro.obs.logsetup`) stamps it, plus
the calling thread's current span id, on every log record, so logs and
traces correlate.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

from .metrics import MetricsRegistry

#: Sentinel for "inherit the calling thread's current span as parent".
_INHERIT: Any = object()


@dataclass
class Span:
    """One timed, attributed region of execution."""

    id: int
    name: str
    category: str = ""
    parent_id: Optional[int] = None
    start_wall: float = 0.0
    start_cpu: float = 0.0
    end_wall: Optional[float] = None
    end_cpu: Optional[float] = None
    error: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: Ident of the thread that opened the span (0 = unknown).
    thread_id: int = 0

    @property
    def duration(self) -> float:
        """Wall-clock seconds (0.0 while the span is still open)."""
        if self.end_wall is None:
            return 0.0
        return self.end_wall - self.start_wall

    @property
    def cpu_time(self) -> float:
        """Process CPU seconds consumed inside the span."""
        if self.end_cpu is None:
            return 0.0
        return self.end_cpu - self.start_cpu

    def to_dict(self) -> Dict[str, Any]:
        """The span as a JSON-ready mapping."""
        return {
            "id": self.id,
            "name": self.name,
            "category": self.category,
            "parent_id": self.parent_id,
            "start": self.start_wall,
            "duration": self.duration,
            "cpu_time": self.cpu_time,
            "error": self.error,
            "attrs": dict(self.attrs),
            "thread": self.thread_id,
        }


class _SpanHandle:
    """Context manager wrapping one open :class:`Span`."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "Recorder", span: Span) -> None:
        self._recorder = recorder
        self.span = span

    @property
    def id(self) -> Optional[int]:
        return self.span.id

    def set(self, **attrs: Any) -> "_SpanHandle":
        """Attach (or overwrite) attributes on the span."""
        self.span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if exc is not None:
            self.span.error = f"{type(exc).__name__}: {exc}"  # type: ignore[union-attr]
        self._recorder._close(self.span)
        return False


class _NullSpan:
    """Shared no-op span handle (the disabled-mode fast path)."""

    __slots__ = ()
    id: Optional[int] = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder that records nothing; every method is a cheap no-op."""

    __slots__ = ()
    enabled: bool = False
    #: Shared registry kept empty — lets generic code read ``rec.metrics``.
    metrics = MetricsRegistry()
    spans: List[Span] = []
    #: No observability session, hence no trace identity / SLO engine.
    trace_id: Optional[str] = None
    slo_engine: Optional[Any] = None

    def span(self, name: str, category: str = "", **attrs: Any) -> _NullSpan:
        """Return the shared no-op span handle."""
        return _NULL_SPAN

    def open_span(self, name: str, **kwargs: Any) -> _NullSpan:
        """Return the shared no-op span handle (cross-thread flavour)."""
        return _NULL_SPAN

    def close_span(self, span: Any, **kwargs: Any) -> None:
        """No-op."""

    def current_span_id(self) -> Optional[int]:
        """No span context when disabled."""
        return None

    @contextmanager
    def attach(self, parent_id: Optional[int]) -> Iterator[None]:
        """No-op context manager (parity with :meth:`Recorder.attach`)."""
        yield

    def incr(self, name: str, amount: float = 1.0) -> None:
        """No-op."""

    def gauge(self, name: str, value: float) -> None:
        """No-op."""

    def observe(self, name: str, seconds: float) -> None:
        """No-op."""

    def hist(self, name: str, value: float) -> None:
        """No-op."""

    def timer(self, name: str) -> _NullSpan:
        """Return the shared no-op context manager."""
        return _NULL_SPAN


NULL = NullRecorder()


class Recorder:
    """Collects spans and metrics for one observability session.

    Safe to share across threads: span-id allocation and the span list
    are lock-protected, and the nesting context is **per thread** — each
    thread's spans nest under that thread's own open spans.  Cross-thread
    parentage is explicit: pass ``parent_id=``, adopt a foreign context
    with :meth:`attach`, or use :meth:`open_span`/:meth:`close_span` for
    a span whose open and close happen on different threads.

    ``keep_spans`` (default ``True``) decides whether :attr:`spans`
    retains every span for export.  With ``False`` spans still get ids,
    nest, and record their durations as timers, but :attr:`spans` stays
    empty — the CLI passes ``bool(--trace-out)``, so a serving session
    that exports no trace does not grow with the jobs it serves.
    """

    enabled: bool = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        *,
        trace_id: Optional[str] = None,
        keep_spans: bool = True,
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.spans: List[Span] = []
        self.keep_spans = keep_spans
        #: One id per observability session; stamped on correlated logs.
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        #: Optional :class:`repro.obs.slo.SloEngine` declared for this
        #: session (CLI ``--slo-config``); ``repro serve`` hands it to its
        #: :class:`~repro.server.JobManager`.  Nothing evaluates it
        #: implicitly: ``slo.*`` gauges are published only by the
        #: manager's ``GET /slo``, ``slo_report()`` and shutdown.
        self.slo_engine: Optional[Any] = None
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next_id = 1

    def _stack(self) -> List[int]:
        """This thread's span-context stack (created on first use)."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_span_id(self) -> Optional[int]:
        """Id of the calling thread's innermost open span, if any.

        ``None`` both when no span is open on this thread and when the
        context was explicitly rooted with ``attach(None)``.
        """
        stack = self._stack()
        if not stack or stack[-1] < 0:
            return None
        return stack[-1]

    @contextmanager
    def attach(self, parent_id: Optional[int]) -> Iterator[None]:
        """Adopt ``parent_id`` as the calling thread's span context.

        This is the cross-thread stitching primitive: a server worker
        thread attaches the job's root span id before executing, so every
        span the execution opens (flow passes, DSE exploration)
        parents into the job's tree instead of starting an orphan root.
        """
        stack = self._stack()
        stack.append(parent_id if parent_id is not None else -1)
        try:
            yield
        finally:
            if stack:
                stack.pop()

    def _new_span(
        self,
        name: str,
        category: str,
        parent_id: Any,
        start_wall: float,
        start_cpu: float,
        attrs: Dict[str, Any],
    ) -> Span:
        if parent_id is _INHERIT:
            parent_id = self.current_span_id()
        span = Span(
            id=0,
            name=name,
            category=category,
            parent_id=parent_id,
            start_wall=start_wall,
            start_cpu=start_cpu,
            attrs=attrs,
            thread_id=threading.get_ident(),
        )
        with self._lock:
            span.id = self._next_id
            self._next_id += 1
            if self.keep_spans:
                self.spans.append(span)
        return span

    # -- span API ----------------------------------------------------------
    def span(
        self,
        name: str,
        category: str = "",
        *,
        parent_id: Any = _INHERIT,
        **attrs: Any,
    ) -> _SpanHandle:
        """Open a nested span; close it by exiting the context manager.

        ``parent_id`` overrides the inherited per-thread context: pass an
        explicit span id to stitch under a span another thread
        opened, or ``None`` to force a root.
        """
        span = self._new_span(
            name,
            category,
            parent_id,
            time.time(),
            time.process_time(),
            dict(attrs),
        )
        self._stack().append(span.id)
        return _SpanHandle(self, span)

    def _close(self, span: Span) -> None:
        span.end_wall = time.time()
        span.end_cpu = time.process_time()
        # Tolerate out-of-order exits (generators, exceptions): pop back to
        # this span if it is still on this thread's stack.
        stack = self._stack()
        if span.id in stack:
            while stack and stack[-1] != span.id:
                stack.pop()
            if stack:
                stack.pop()
        self.metrics.observe(span.name, span.duration)

    def open_span(
        self,
        name: str,
        *,
        category: str = "",
        parent_id: Any = _INHERIT,
        start_wall: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span without touching any thread's context stack.

        The returned :class:`Span` may be closed from *any* thread with
        :meth:`close_span` — this is the lifecycle primitive for spans
        that outlive a single call frame, e.g. a server job's
        submission-to-terminal window, whose open (admission) and close
        (completion) happen on different threads.  Until closed, the span
        is excluded from exports.
        """
        return self._new_span(
            name,
            category,
            parent_id,
            start_wall if start_wall is not None else time.time(),
            0.0,
            dict(attrs),
        )

    def close_span(
        self,
        span: Span,
        *,
        error: Optional[str] = None,
        end_wall: Optional[float] = None,
        **attrs: Any,
    ) -> None:
        """Close a span produced by :meth:`open_span` (idempotent)."""
        if span.end_wall is not None:
            return
        span.end_wall = end_wall if end_wall is not None else time.time()
        if error is not None:
            span.error = error
        span.attrs.update(attrs)
        self.metrics.observe(span.name, span.duration)

    # -- metrics passthrough ----------------------------------------------
    def incr(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter on the attached registry."""
        self.metrics.incr(name, amount)

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge on the attached registry."""
        self.metrics.gauge(name, value)

    def observe(self, name: str, seconds: float) -> None:
        """Record a timer observation on the attached registry."""
        self.metrics.observe(name, seconds)

    def hist(self, name: str, value: float) -> None:
        """Record a histogram observation on the attached registry."""
        self.metrics.hist(name, value)

    def timer(self, name: str):
        """Context manager timing its body on the attached registry."""
        return self.metrics.timer(name)

    # -- export ------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        """All closed spans, in opening order."""
        return [s for s in self.spans if s.end_wall is not None]


#: Either flavour of recorder, for annotations at call sites.
AnyRecorder = Union[Recorder, NullRecorder]

_current: AnyRecorder = NULL


def get() -> AnyRecorder:
    """The currently installed recorder (:data:`NULL` when disabled)."""
    return _current


def active() -> bool:
    """Whether a real recorder is installed."""
    return _current.enabled


def current_trace_id() -> Optional[str]:
    """Trace id of the installed recorder (``None`` when disabled).

    The correlation hook for structured logging: every JSON log record
    stamps this value so log lines join to the exported trace.
    """
    return _current.trace_id


def current_span_id() -> Optional[int]:
    """Innermost open span id on the calling thread (``None`` if none)."""
    return _current.current_span_id()


def set_recorder(recorder: AnyRecorder) -> AnyRecorder:
    """Install ``recorder`` as current; returns the previous one."""
    global _current
    previous = _current
    _current = recorder
    return previous


def enable(metrics: Optional[MetricsRegistry] = None) -> Recorder:
    """Create and install a fresh :class:`Recorder`; returns it."""
    recorder = Recorder(metrics)
    set_recorder(recorder)
    return recorder


def disable() -> None:
    """Reinstall the null recorder."""
    set_recorder(NULL)


@contextmanager
def use(recorder: AnyRecorder) -> Iterator[AnyRecorder]:
    """Temporarily install ``recorder`` for the ``with`` body."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
