#!/usr/bin/env python3
"""Validate observability JSON artifacts against their documented schemas.

Usage::

    python tools/validate_trace.py trace.json [--metrics metrics.json] [--tree]
    python tools/validate_trace.py --slo slo.json

Checks the Chrome-trace document (``--trace-out`` output) for Trace Event
Format conformance — Perfetto loadability — and optionally the metrics
snapshot (``--metrics-out`` output) for the registry schema and the
documented synthesis keys.  ``--tree`` additionally requires the trace's
spans to form a single rooted tree: every ``args.parent_id`` must resolve
to another event in the document (no orphan roots from worker
threads).  ``--slo`` validates a ``GET /slo`` / ``repro slo-report
--json`` document.  Exits non-zero with a message on the first
violation; CI's smoke jobs run this after real ``repro`` invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

#: Event fields every complete ("X") event must carry.
REQUIRED_EVENT_FIELDS = ("name", "ph", "ts", "dur", "pid", "tid")

#: Timer keys a synthesize run must produce (one per flow step that ran).
SYNTHESIS_TIMER_KEYS = (
    "flow.synthesize",
    "flow.map",
    "flow.optimize",
    "optimize.channels",
    "optimize.barriers",
)

#: Counter key prefixes a synthesize run must produce.
SYNTHESIS_COUNTER_PREFIXES = ("mapping.rule.", "optimize.channels.")

#: Risk levels an SLO record may carry, in increasing severity.
SLO_RISKS = ("ok", "warn", "breach")

#: Fields every SLO record must carry.
SLO_RECORD_FIELDS = (
    "target",
    "objective",
    "target_value",
    "observed",
    "events",
    "errors",
    "attainment_pct",
    "budget_remaining_pct",
    "burn_rate",
    "risk",
)

#: Objectives an SLO record may evaluate.
SLO_OBJECTIVES = ("availability", "p50", "p95", "p99")

def validate_trace(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid span trace."""
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("top level must be an object with 'traceEvents'")
    events = document["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty array")
    complete = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event #{index} is not an object")
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase != "X":
            raise ValueError(f"event #{index}: unexpected phase {phase!r}")
        complete += 1
        for field in REQUIRED_EVENT_FIELDS:
            if field not in event:
                raise ValueError(f"event #{index} lacks {field!r}")
        if not isinstance(event["ts"], int) or event["ts"] < 0:
            raise ValueError(f"event #{index}: ts must be a non-negative int")
        if not isinstance(event["dur"], int) or event["dur"] < 1:
            raise ValueError(f"event #{index}: dur must be a positive int")
    if complete == 0:
        raise ValueError("trace holds no complete ('X') events")


def validate_span_tree(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless the trace's spans form one rooted tree.

    Every complete event's ``args.parent_id`` must name another complete
    event in the same document (a worker span whose parent was
    never exported is an *orphan root* — the stitching bug this guards
    against), and exactly one span may be parentless.
    """
    events = [
        e
        for e in document.get("traceEvents", [])
        if isinstance(e, dict) and e.get("ph") == "X"
    ]
    ids = {e.get("id") for e in events if e.get("id") is not None}
    roots = []
    for event in events:
        parent = (event.get("args") or {}).get("parent_id")
        if parent is None:
            roots.append(event)
        elif parent not in ids:
            raise ValueError(
                f"span {event.get('name')!r} (id {event.get('id')}) has "
                f"unresolvable parent_id {parent} — orphaned subtree"
            )
    if len(roots) != 1:
        names = sorted(str(e.get("name")) for e in roots)
        raise ValueError(
            f"expected exactly one root span, found {len(roots)}: {names}"
        )


def validate_metrics(document: Dict[str, Any], *, synthesis: bool = True) -> None:
    """Raise ``ValueError`` unless ``document`` is a metrics snapshot.

    With ``synthesis`` (the default) also require the documented keys a
    ``repro synthesize`` run must emit.
    """
    for section in ("counters", "gauges", "timers"):
        if not isinstance(document.get(section), dict):
            raise ValueError(f"metrics must hold a {section!r} object")
    for name, stat in document["timers"].items():
        for field in ("count", "total", "min", "max", "mean"):
            if field not in stat:
                raise ValueError(f"timer {name!r} lacks {field!r}")
    if not synthesis:
        return
    for key in SYNTHESIS_TIMER_KEYS:
        if key not in document["timers"]:
            raise ValueError(f"missing documented timer {key!r}")
    for prefix in SYNTHESIS_COUNTER_PREFIXES:
        if not any(name.startswith(prefix) for name in document["counters"]):
            raise ValueError(f"no counter with documented prefix {prefix!r}")


def _check_record(record: Any, where: str) -> None:
    if not isinstance(record, dict):
        raise ValueError(f"{where} is not an object")
    for field in SLO_RECORD_FIELDS:
        if field not in record:
            raise ValueError(f"{where} lacks {field!r}")
    if record["objective"] not in SLO_OBJECTIVES:
        raise ValueError(
            f"{where}: unknown objective {record['objective']!r}"
        )
    if record["risk"] not in SLO_RISKS:
        raise ValueError(f"{where}: unknown risk {record['risk']!r}")
    for field in ("attainment_pct", "budget_remaining_pct"):
        value = record[field]
        if not isinstance(value, (int, float)) or not 0 <= value <= 100:
            raise ValueError(f"{where}: {field} must be in [0, 100]")
    burn = record["burn_rate"]
    if not isinstance(burn, (int, float)) or burn < 0:
        raise ValueError(f"{where}: burn_rate must be non-negative")
    if burn >= 1.0 and record["risk"] != "breach":
        raise ValueError(
            f"{where}: burn_rate {burn} >= 1 must be risk 'breach', "
            f"got {record['risk']!r}"
        )


def validate_slo(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a ``/slo`` report."""
    if not isinstance(document, dict):
        raise ValueError("SLO document must be an object")
    for field in ("window_s", "risk", "targets", "records"):
        if field not in document:
            raise ValueError(f"SLO document lacks {field!r}")
    if document["risk"] not in SLO_RISKS:
        raise ValueError(f"unknown overall risk {document['risk']!r}")
    targets = document["targets"]
    if not isinstance(targets, list) or not targets:
        raise ValueError("'targets' must be a non-empty array")
    names = set()
    for index, target in enumerate(targets):
        if not isinstance(target, dict) or "name" not in target:
            raise ValueError(f"target #{index} lacks 'name'")
        names.add(target["name"])
    records = document["records"]
    if not isinstance(records, list) or not records:
        raise ValueError("'records' must be a non-empty array")
    worst = 0
    for index, record in enumerate(records):
        _check_record(record, f"record #{index}")
        if record["target"] not in names:
            raise ValueError(
                f"record #{index} references undeclared target "
                f"{record['target']!r}"
            )
        worst = max(worst, SLO_RISKS.index(record["risk"]))
    if SLO_RISKS.index(document["risk"]) != worst:
        raise ValueError(
            f"overall risk {document['risk']!r} does not match worst "
            f"record risk {SLO_RISKS[worst]!r}"
        )


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "trace", nargs="?", help="--trace-out JSON file to validate"
    )
    parser.add_argument("--metrics", help="--metrics-out JSON file to validate")
    parser.add_argument(
        "--tree",
        action="store_true",
        help="require the trace's spans to form a single rooted tree",
    )
    parser.add_argument("--slo", help="GET /slo report JSON file to validate")
    args = parser.parse_args(argv)
    if not (args.trace or args.metrics or args.slo):
        parser.error("nothing to validate: give a trace or --slo")
    try:
        if args.trace:
            with open(args.trace, encoding="utf-8") as handle:
                document = json.load(handle)
            validate_trace(document)
            print(f"{args.trace}: valid Chrome-trace document")
            if args.tree:
                validate_span_tree(document)
                print(f"{args.trace}: spans form a single rooted tree")
        elif args.tree:
            parser.error("--tree needs a trace file")
        if args.metrics:
            with open(args.metrics, encoding="utf-8") as handle:
                validate_metrics(json.load(handle))
            print(f"{args.metrics}: valid metrics snapshot")
        if args.slo:
            with open(args.slo, encoding="utf-8") as handle:
                validate_slo(json.load(handle))
            print(f"{args.slo}: valid SLO report")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
