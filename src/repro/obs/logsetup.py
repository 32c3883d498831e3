"""Stdlib-logging configuration for the ``repro`` logger tree.

Every module logs under ``logging.getLogger("repro.<module>")``; nothing
is emitted unless the application (or the CLI's ``-v`` flag) configures a
handler.  :func:`configure_logging` is the one-call setup the CLI uses —
idempotent, so repeated calls just adjust the level/format.

Two output formats:

- ``"text"`` (default): the classic ``LEVEL name: message`` lines;
- ``"json"`` (``repro --log-json``): one JSON object per line carrying
  **correlation fields** — the active recorder's ``trace_id``, the
  calling thread's current ``span_id``, and any fields pushed with
  :func:`log_fields` (the server stamps ``job_id`` around each job
  execution) — so every log line joins to the exported Chrome trace and
  to the job journal.

Correlation is stamped by a :class:`logging.Filter` on the handler, so
it applies to *both* formats: text records also carry the fields as
attributes for custom formatters, and switching formats mid-run (tests)
never loses correlation.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
from contextlib import contextmanager
from typing import IO, Any, Dict, Iterator, Optional

from . import recorder as _recorder

#: Verbosity → level mapping for the CLI's ``-v`` count.
_LEVELS = {0: logging.WARNING, 1: logging.INFO}

_HANDLER_NAME = "repro-obs"

#: Thread-local stack of extra correlation fields (see :func:`log_fields`).
_context = threading.local()


def _field_stack() -> list:
    stack = getattr(_context, "stack", None)
    if stack is None:
        stack = _context.stack = []
    return stack


@contextmanager
def log_fields(**fields: Any) -> Iterator[None]:
    """Stamp ``fields`` on every log record emitted in the body.

    Nests: inner scopes add to (and may override) outer ones.  The
    server wraps each job execution in ``log_fields(job_id=...)`` so
    worker log lines are attributable without threading the id through
    every call signature.
    """
    stack = _field_stack()
    stack.append(fields)
    try:
        yield
    finally:
        if stack:
            stack.pop()


def current_log_fields() -> Dict[str, Any]:
    """The merged correlation fields for the calling thread."""
    merged: Dict[str, Any] = {}
    for fields in _field_stack():
        merged.update(fields)
    return merged


class CorrelationFilter(logging.Filter):
    """Stamps trace/span/context correlation attributes on records.

    Always passes the record through — it enriches, never filters.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        record.trace_id = _recorder.current_trace_id()
        record.span_id = _recorder.current_span_id()
        record.context_fields = current_log_fields()
        return True


class JsonFormatter(logging.Formatter):
    """One JSON object per line with correlation fields.

    Core keys: ``ts``, ``level``, ``logger``, ``message``; correlation
    keys ``trace_id`` / ``span_id`` appear when a recorder is active,
    and :func:`log_fields` context (e.g. ``job_id``) merges in at the
    top level.  Unserializable values degrade to ``str``.
    """

    def format(self, record: logging.LogRecord) -> str:
        doc: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        trace_id = getattr(record, "trace_id", None)
        if trace_id is not None:
            doc["trace_id"] = trace_id
        span_id = getattr(record, "span_id", None)
        if span_id is not None:
            doc["span_id"] = span_id
        doc.update(getattr(record, "context_fields", None) or {})
        if record.exc_info and record.exc_info[0] is not None:
            doc["exc_type"] = record.exc_info[0].__name__
            doc["exc"] = self.formatException(record.exc_info)
        return json.dumps(doc, default=str)


def configure_logging(
    verbosity: int = 0,
    stream: Optional[IO[str]] = None,
    *,
    fmt: str = "text",
) -> logging.Logger:
    """Attach a stderr handler to the ``repro`` logger.

    ``verbosity`` 0 shows warnings, 1 shows per-stage INFO lines, 2+
    shows DEBUG detail.  ``fmt`` selects ``"text"`` lines or ``"json"``
    records with trace/span correlation.  Returns the configured logger.
    """
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown log format {fmt!r} (want 'text'|'json')")
    logger = logging.getLogger("repro")
    level = _LEVELS.get(verbosity, logging.DEBUG)
    logger.setLevel(level)
    handler = next(
        (h for h in logger.handlers if h.get_name() == _HANDLER_NAME), None
    )
    if handler is None:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.set_name(_HANDLER_NAME)
        handler.addFilter(CorrelationFilter())
        logger.addHandler(handler)
    else:
        # Rebind so redirected stderr (tests, daemons) is honoured.  Assign
        # directly: setStream() would flush the previous stream, which may
        # already be closed.
        handler.stream = stream or sys.stderr
    if fmt == "json":
        handler.setFormatter(JsonFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
    handler.setLevel(level)
    return logger
