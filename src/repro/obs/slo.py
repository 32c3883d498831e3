"""SLO engine: declarative targets, error budgets, burn rates.

The service-level layer on top of :mod:`repro.obs.metrics`.  Operators
declare targets — availability per job kind, latency percentiles per
pipeline stage, queue-wait bounds — and the engine evaluates them
against a live :class:`~repro.obs.metrics.MetricsRegistry` over a
rolling window, answering three questions per objective:

- **attainment**: what fraction of events met the objective;
- **budget**: how much of the error budget (``1 - target``) remains;
- **burn rate**: how fast the budget is being consumed — the classic SRE
  ratio ``observed_error_fraction / allowed_error_fraction``, where 1.0
  means "spending exactly the budget" and anything above means the
  budget exhausts before the window does.

Each objective is classified ``ok`` (burn below the warn threshold),
``warn`` (burning fast but not yet over budget), or ``breach`` (burn
>= 1.0, i.e. the error budget for the window is spent).

Latency objectives are *violation-fraction* objectives: a ``p95 <= 5 s``
target means at most 5 % of events may exceed 5 s.  The violation
fraction comes from :meth:`HistogramStat.fraction_over`, whose uniform
reservoir makes the sample fraction an unbiased estimate of the true
one.  Availability objectives count good/bad events from counters.

Rolling windows are computed from timestamped cumulative snapshots: each
evaluation appends ``(now, total, bad)`` per objective and differences
against the oldest snapshot still inside the window, so a burst of
failures ages out of the burn rate after ``window_s`` seconds instead of
haunting the cumulative ratio forever.  Before the window fills, the
delta is taken from process start — the conservative reading.

Consumers: ``GET /slo`` on the batch server, ``repro slo-report``, and
``ObservabilityReport.slo``.  The document schema is validated by
``tools/validate_trace.py --slo`` and documented in
``docs/observability.md``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from .metrics import MetricsRegistry

#: Risk levels in increasing severity; encoded 0/1/2 in gauges.
RISK_LEVELS = ("ok", "warn", "breach")

#: Latency objective keys and their quantiles.
_LATENCY_OBJECTIVES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


@dataclass(frozen=True)
class SloTarget:
    """One declared target: availability and/or latency bounds.

    ``source`` names the histogram (or percentile-tracked timer) whose
    observations the latency objectives read.  Availability reads the
    ``good`` / ``bad`` counter names instead; a target may declare
    either, or both.
    """

    name: str
    source: str = ""
    #: Availability target in percent (e.g. ``99.0``); ``None`` disables.
    availability_pct: Optional[float] = None
    #: Counter names whose sum is the "successful events" tally.
    good: Tuple[str, ...] = ()
    #: Counter names whose sum is the "failed events" tally.
    bad: Tuple[str, ...] = ()
    #: Latency bounds in seconds; ``None`` disables the objective.
    p50_s: Optional[float] = None
    p95_s: Optional[float] = None
    p99_s: Optional[float] = None
    description: str = ""

    def objectives(self) -> List[str]:
        """The objective keys this target declares, in report order."""
        keys: List[str] = []
        if self.availability_pct is not None:
            keys.append("availability")
        for key, _ in _LATENCY_OBJECTIVES:
            if getattr(self, f"{key}_s") is not None:
                keys.append(key)
        return keys

    def to_dict(self) -> Dict[str, Any]:
        """The declaration as a JSON-ready mapping (``None`` omitted)."""
        doc: Dict[str, Any] = {"name": self.name}
        if self.source:
            doc["source"] = self.source
        if self.availability_pct is not None:
            doc["availability_pct"] = self.availability_pct
            doc["good"] = list(self.good)
            doc["bad"] = list(self.bad)
        for key, _ in _LATENCY_OBJECTIVES:
            bound = getattr(self, f"{key}_s")
            if bound is not None:
                doc[f"{key}_s"] = bound
        if self.description:
            doc["description"] = self.description
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SloTarget":
        """Parse one target declaration (the ``--slo-config`` format)."""
        if "name" not in doc:
            raise ValueError("SLO target missing required key 'name'")
        known = {
            "name",
            "source",
            "availability_pct",
            "good",
            "bad",
            "p50_s",
            "p95_s",
            "p99_s",
            "description",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"SLO target {doc['name']!r}: unknown keys {sorted(unknown)}"
            )
        return cls(
            name=str(doc["name"]),
            source=str(doc.get("source", "")),
            availability_pct=(
                float(doc["availability_pct"])
                if doc.get("availability_pct") is not None
                else None
            ),
            good=tuple(doc.get("good", ())),
            bad=tuple(doc.get("bad", ())),
            p50_s=float(doc["p50_s"]) if doc.get("p50_s") is not None else None,
            p95_s=float(doc["p95_s"]) if doc.get("p95_s") is not None else None,
            p99_s=float(doc["p99_s"]) if doc.get("p99_s") is not None else None,
            description=str(doc.get("description", "")),
        )


def default_server_targets() -> List[SloTarget]:
    """The batch server's built-in SLOs (overridable via ``--slo-config``).

    Per job kind: 99 % availability plus p50/p95/p99 latency bounds on
    the per-kind latency histogram.  Overall: the same latency bounds on
    the aggregate ``server.job.latency`` histogram, and a p95 bound on
    queue wait (admission-to-dispatch time).
    """
    targets: List[SloTarget] = []
    for kind in ("synthesize", "explore", "simulate"):
        targets.append(
            SloTarget(
                name=kind,
                source=f"server.job.latency.{kind}",
                availability_pct=99.0,
                good=(f"server.jobs.done.{kind}",),
                bad=(
                    f"server.jobs.failed.{kind}",
                    f"server.jobs.timed_out.{kind}",
                ),
                p50_s=1.0,
                p95_s=5.0,
                p99_s=15.0,
                description=f"{kind} jobs: 99% availability, p95 under 5s",
            )
        )
    targets.append(
        SloTarget(
            name="jobs",
            source="server.job.latency",
            availability_pct=99.0,
            good=("server.jobs.done",),
            bad=("server.jobs.failed", "server.jobs.timed_out"),
            p50_s=1.0,
            p95_s=5.0,
            p99_s=15.0,
            description="all jobs: 99% availability, p95 under 5s",
        )
    )
    targets.append(
        SloTarget(
            name="queue-wait",
            source="server.job.queue_wait",
            p95_s=2.0,
            description="admission-to-dispatch wait: p95 under 2s",
        )
    )
    return targets


def default_flow_targets() -> List[SloTarget]:
    """Pipeline-stage SLOs for a library/CLI synthesis run.

    Latency-only bounds on the flow's stage timers; the engine registers
    the stage names for percentile tracking when attached, so the same
    timers that feed ``--metrics-out`` become SLO sources.
    """
    return [
        SloTarget(
            name="synthesize",
            source="flow.synthesize",
            p50_s=1.0,
            p95_s=5.0,
            p99_s=15.0,
            description="end-to-end synthesis: p95 under 5s",
        ),
        SloTarget(
            name="map",
            source="flow.map",
            p95_s=2.0,
            description="platform mapping stage: p95 under 2s",
        ),
        SloTarget(
            name="explore",
            source="dse.explore",
            p95_s=10.0,
            description="design-space exploration: p95 under 10s",
        ),
    ]


@dataclass
class _Window:
    """Cumulative ``(timestamp, total, bad)`` snapshots per objective."""

    points: Deque[Tuple[float, float, float]] = field(default_factory=deque)

    def update(
        self, now: float, total: float, bad: float, window_s: float
    ) -> Tuple[float, float]:
        """Record a snapshot; return the in-window ``(events, errors)``."""
        points = self.points
        points.append((now, total, bad))
        # Keep one point older than the window as the differencing base.
        while len(points) > 1 and points[1][0] <= now - window_s:
            points.popleft()
        base_t, base_total, base_bad = points[0]
        if base_t > now - window_s and len(points) == 1:
            # Single fresh point: everything cumulative counts (startup).
            return total, bad
        return max(total - base_total, 0.0), max(bad - base_bad, 0.0)


class SloEngine:
    """Evaluates declared targets against a metrics registry.

    One engine per service instance; evaluations are cheap (pure reads
    plus one deque append per objective) so scraping ``/slo`` per second
    is fine.  ``warn_burn`` is the fraction of budget-burn rate at which
    an objective flips from ``ok`` to ``warn`` (default 0.5: spending
    half the allowed budget for the window).
    """

    def __init__(
        self,
        targets: Iterable[SloTarget],
        *,
        window_s: float = 300.0,
        warn_burn: float = 0.5,
    ) -> None:
        self.targets = list(targets)
        if not self.targets:
            raise ValueError("SloEngine needs at least one target")
        names = [t.name for t in self.targets]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO target names: {names}")
        self.window_s = float(window_s)
        self.warn_burn = float(warn_burn)
        self._windows: Dict[Tuple[str, str], _Window] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def from_config(
        cls, config: Any, *, window_s: float = 300.0, warn_burn: float = 0.5
    ) -> "SloEngine":
        """Build an engine from a config dict or a JSON file path.

        The document shape (also what ``--slo-config`` loads)::

            {
              "window_s": 300,          // optional
              "warn_burn": 0.5,         // optional
              "targets": [ {<SloTarget.from_dict>}, ... ]
            }

        A bare list of target dicts is accepted as shorthand.
        """
        if isinstance(config, str):
            with open(config, "r", encoding="utf-8") as handle:
                config = json.load(handle)
        if isinstance(config, list):
            config = {"targets": config}
        if not isinstance(config, dict):
            raise ValueError("SLO config must be a JSON object or list")
        raw_targets = config.get("targets")
        if not isinstance(raw_targets, list) or not raw_targets:
            raise ValueError("SLO config needs a non-empty 'targets' list")
        return cls(
            [SloTarget.from_dict(doc) for doc in raw_targets],
            window_s=float(config.get("window_s", window_s)),
            warn_burn=float(config.get("warn_burn", warn_burn)),
        )

    def attach(self, registry: MetricsRegistry) -> None:
        """Register latency sources for percentile tracking.

        Sources that are span/timer names (flow stages) get mirrored
        into histograms from this point on; sources the server already
        records via ``hist()`` are unaffected.
        """
        sources = [t.source for t in self.targets if t.source]
        if sources:
            registry.track_percentiles(sources)

    # -- evaluation --------------------------------------------------------
    def _risk(self, burn_rate: float) -> str:
        if burn_rate >= 1.0:
            return "breach"
        if burn_rate >= self.warn_burn:
            return "warn"
        return "ok"

    def _record(
        self,
        target: SloTarget,
        objective: str,
        *,
        target_value: float,
        observed: float,
        events: float,
        errors: float,
        allowed_fraction: float,
        now: float,
    ) -> Dict[str, Any]:
        # 1 - 99/100 binary-rounds to 0.010000000000000009; without this
        # a run burning exactly half its budget lands a hair under the
        # warn threshold instead of on it.
        allowed_fraction = round(allowed_fraction, 12)
        error_fraction = errors / events if events else 0.0
        if allowed_fraction <= 0.0:
            burn_rate = float("inf") if errors else 0.0
        else:
            burn_rate = error_fraction / allowed_fraction
        attainment = (1.0 - error_fraction) * 100.0
        budget_remaining = max(0.0, 1.0 - burn_rate) * 100.0
        return {
            "target": target.name,
            "objective": objective,
            "source": target.source,
            "target_value": target_value,
            "observed": observed,
            "events": events,
            "errors": errors,
            "error_fraction": error_fraction,
            "allowed_fraction": allowed_fraction,
            "attainment_pct": attainment,
            "budget_remaining_pct": budget_remaining,
            "burn_rate": burn_rate,
            "risk": self._risk(burn_rate),
            "window_s": self.window_s,
            "evaluated_at": now,
        }

    def _window(self, target: str, objective: str) -> _Window:
        key = (target, objective)
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = _Window()
        return window

    def evaluate(
        self,
        registry: MetricsRegistry,
        *,
        now: Optional[float] = None,
        publish: bool = False,
    ) -> Dict[str, Any]:
        """Evaluate every declared objective against ``registry``.

        Returns the ``/slo`` document.  With ``publish=True`` the
        per-objective burn rate, budget, and risk are also written back
        into the registry as ``slo.<target>.<objective>.*`` gauges (plus
        the overall ``slo.risk``), which is how ``/metrics`` gets
        enriched without a second evaluation.
        """
        now = time.time() if now is None else now
        records: List[Dict[str, Any]] = []
        for target in self.targets:
            if target.availability_pct is not None:
                good = sum(registry.counter(n) for n in target.good)
                bad = sum(registry.counter(n) for n in target.bad)
                total = good + bad
                events, errors = self._window(
                    target.name, "availability"
                ).update(now, total, bad, self.window_s)
                records.append(
                    self._record(
                        target,
                        "availability",
                        target_value=target.availability_pct,
                        observed=(
                            (1.0 - (errors / events)) * 100.0
                            if events
                            else 100.0
                        ),
                        events=events,
                        errors=errors,
                        allowed_fraction=1.0 - target.availability_pct / 100.0,
                        now=now,
                    )
                )
            hist = registry.histogram_stat(target.source)
            for objective, quantile in _LATENCY_OBJECTIVES:
                bound = getattr(target, f"{objective}_s")
                if bound is None:
                    continue
                if hist is None:
                    total = 0.0
                    bad = 0.0
                    observed = 0.0
                else:
                    total = float(hist.count)
                    bad = hist.fraction_over(bound) * total
                    observed = hist.percentile(quantile)
                events, errors = self._window(target.name, objective).update(
                    now, total, bad, self.window_s
                )
                records.append(
                    self._record(
                        target,
                        objective,
                        target_value=bound,
                        observed=observed,
                        events=events,
                        errors=errors,
                        allowed_fraction=1.0 - quantile,
                        now=now,
                    )
                )
        document = self._document(records, now)
        if publish:
            self._publish(registry, document)
        return document

    def evaluate_snapshot(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """Offline evaluation of a registry snapshot (``to_dict`` shape).

        Used by ``repro slo-report --metrics FILE``: no reservoir is
        available, so latency violation fractions are estimated from the
        snapshot's percentile anchors by piecewise-linear interpolation
        of the CDF through (0, min), (0.5, p50), (0.95, p95),
        (0.99, p99), (1, max).  Windows don't apply — the snapshot is a
        single cumulative point.
        """
        counters = snapshot.get("counters", {})
        histograms = snapshot.get("histograms", {})
        now = time.time()
        records: List[Dict[str, Any]] = []
        for target in self.targets:
            if target.availability_pct is not None:
                good = sum(counters.get(n, 0.0) for n in target.good)
                bad = sum(counters.get(n, 0.0) for n in target.bad)
                total = good + bad
                records.append(
                    self._record(
                        target,
                        "availability",
                        target_value=target.availability_pct,
                        observed=(
                            (1.0 - bad / total) * 100.0 if total else 100.0
                        ),
                        events=total,
                        errors=bad,
                        allowed_fraction=1.0 - target.availability_pct / 100.0,
                        now=now,
                    )
                )
            hist = histograms.get(target.source)
            for objective, quantile in _LATENCY_OBJECTIVES:
                bound = getattr(target, f"{objective}_s")
                if bound is None:
                    continue
                if not hist:
                    total = 0.0
                    bad = 0.0
                    observed = 0.0
                else:
                    total = float(hist.get("count", 0.0))
                    bad = _estimate_fraction_over(hist, bound) * total
                    observed = float(hist.get(objective, 0.0))
                records.append(
                    self._record(
                        target,
                        objective,
                        target_value=bound,
                        observed=observed,
                        events=total,
                        errors=bad,
                        allowed_fraction=1.0 - quantile,
                        now=now,
                    )
                )
        return self._document(records, now)

    # -- document assembly -------------------------------------------------
    def _document(
        self, records: List[Dict[str, Any]], now: float
    ) -> Dict[str, Any]:
        worst = max(
            (RISK_LEVELS.index(r["risk"]) for r in records), default=0
        )
        return {
            "window_s": self.window_s,
            "warn_burn": self.warn_burn,
            "evaluated_at": now,
            "risk": RISK_LEVELS[worst],
            "targets": [t.to_dict() for t in self.targets],
            "records": records,
        }

    def _publish(
        self, registry: MetricsRegistry, document: Dict[str, Any]
    ) -> None:
        for record in document["records"]:
            prefix = f"slo.{record['target']}.{record['objective']}"
            registry.gauge(f"{prefix}.burn_rate", record["burn_rate"])
            registry.gauge(
                f"{prefix}.budget_remaining_pct",
                record["budget_remaining_pct"],
            )
            registry.gauge(
                f"{prefix}.risk", float(RISK_LEVELS.index(record["risk"]))
            )
        registry.gauge("slo.risk", float(RISK_LEVELS.index(document["risk"])))


def _estimate_fraction_over(hist: Dict[str, Any], bound: float) -> float:
    """Estimate P(X > bound) from a snapshot's percentile anchors.

    Linear interpolation of the empirical CDF through the exported
    anchors; exact at the anchors, conservative in between.  Degenerate
    (all-equal) distributions resolve by direct comparison.
    """
    count = hist.get("count", 0)
    if not count:
        return 0.0
    anchors = [
        (float(hist.get("min", 0.0)), 0.0),
        (float(hist.get("p50", 0.0)), 0.50),
        (float(hist.get("p95", 0.0)), 0.95),
        (float(hist.get("p99", 0.0)), 0.99),
        (float(hist.get("max", 0.0)), 1.0),
    ]
    if bound >= anchors[-1][0]:
        return 0.0
    if bound < anchors[0][0]:
        return 1.0
    cdf = anchors[0][1]
    for (lo_v, lo_q), (hi_v, hi_q) in zip(anchors, anchors[1:]):
        if bound < hi_v:
            if hi_v > lo_v:
                cdf = lo_q + (hi_q - lo_q) * (bound - lo_v) / (hi_v - lo_v)
            else:
                cdf = hi_q
            break
        cdf = hi_q
    return max(0.0, 1.0 - cdf)
