"""Chrome ``trace_event`` export (loadable in ``chrome://tracing`` / Perfetto).

The exporter emits the JSON-object flavour of the Trace Event Format: a
``traceEvents`` array of complete-duration (``"ph": "X"``) events plus
process/thread-name metadata events.  Timestamps are microseconds
relative to the earliest span, which keeps the numbers small and the
Perfetto timeline starting at zero.

Spans opened by different threads (the batch server's job workers) land
on distinct ``tid`` lanes — numbered in order of first appearance, so
documents stay deterministic for a given span list.  Cross-thread parentage
survives regardless of lanes via the ``args.parent_id`` links, which is
what :func:`tools.validate_trace.validate_span_tree` walks.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from .recorder import Span

#: Process id used for every event (the flow is single-process).
PID = 1
#: Lane of the first-seen thread (the main/root lane).
TID = 1


def to_chrome_trace(
    spans: Iterable[Span], *, process_name: str = "repro"
) -> Dict[str, Any]:
    """Convert closed spans into a Trace Event Format document."""
    closed = [s for s in spans if s.end_wall is not None]
    origin = min((s.start_wall for s in closed), default=0.0)
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": PID,
            "tid": TID,
            "args": {"name": process_name},
        }
    ]
    lanes: Dict[int, int] = {}
    for span in closed:
        lane = lanes.get(span.thread_id)
        if lane is None:
            lane = lanes[span.thread_id] = len(lanes) + TID
            if span.thread_id:
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": PID,
                        "tid": lane,
                        "args": {
                            "name": (
                                "main"
                                if lane == TID
                                else f"thread-{span.thread_id}"
                            )
                        },
                    }
                )
        args: Dict[str, Any] = {"cpu_time_s": span.cpu_time}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.error:
            args["error"] = span.error
        args.update(span.attrs)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category or "repro",
                "ts": int((span.start_wall - origin) * 1e6),
                "dur": max(int(span.duration * 1e6), 1),
                "pid": PID,
                "tid": lane,
                "id": span.id,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    spans: Iterable[Span], path: str, *, process_name: str = "repro"
) -> None:
    """Serialize :func:`to_chrome_trace` output to ``path``."""
    document = to_chrome_trace(spans, process_name=process_name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, default=str)
        handle.write("\n")
