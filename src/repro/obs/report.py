"""The per-run observability report attached to :class:`SynthesisResult`.

Library users get the same data the CLI writes to ``--trace-out`` /
``--metrics-out``, without touching files:

- ``census`` is always populated (it is derived from artifacts the flow
  builds anyway, so it costs nothing extra even with the null recorder):
  channel counts, mapping trace statistics, barrier count, block census;
- ``spans`` and ``metrics`` are populated only when a recorder was active
  during the run — they carry the per-step timings and counters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from .chrometrace import to_chrome_trace, write_chrome_trace
from .recorder import Span


@dataclass
class ObservabilityReport:
    """Everything one run recorded: census, spans, metrics snapshot."""

    #: Structural counts derived from the run's artifacts (always filled).
    census: Dict[str, Any] = field(default_factory=dict)
    #: Closed spans recorded during the run (empty when obs is disabled).
    spans: List[Span] = field(default_factory=list)
    #: Metrics registry snapshot (empty when obs is disabled).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Synthesis-cache data (see :mod:`repro.parallel`): the cache
    #: verdict for this run (``status`` is ``"hit"``, ``"miss"`` or
    #: ``"bypass"``).  Empty when the cache was not involved.
    parallel: Dict[str, Any] = field(default_factory=dict)
    #: SLO evaluation document (see :mod:`repro.obs.slo`): attainment,
    #: error-budget remainder and burn rate per declared objective.
    #: Filled only when the run's recorder carried an ``slo_engine``.
    slo: Dict[str, Any] = field(default_factory=dict)

    @property
    def recorded(self) -> bool:
        """Whether a live recorder captured spans/metrics for this run."""
        return bool(self.spans) or bool(self.metrics)

    def span_named(self, name: str) -> List[Span]:
        """All spans with the given name (e.g. ``"flow.map"``)."""
        return [s for s in self.spans if s.name == name]

    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON-ready mapping."""
        return {
            "census": self.census,
            "spans": [s.to_dict() for s in self.spans],
            "metrics": self.metrics,
            "parallel": self.parallel,
            "slo": self.slo,
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def chrome_trace(self) -> Dict[str, Any]:
        """The run's spans as a Trace Event Format document."""
        return to_chrome_trace(self.spans)

    def write_trace(self, path: str) -> None:
        """Write the Perfetto-loadable trace JSON to ``path``."""
        write_chrome_trace(self.spans, path)

    def write_metrics(self, path: str) -> None:
        """Write ``{"census": ..., "metrics": ...}`` JSON to ``path``."""
        document = {"census": self.census, "metrics": self.metrics}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, default=str)
            handle.write("\n")
