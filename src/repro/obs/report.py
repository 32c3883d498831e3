"""The per-run observability report attached to :class:`SynthesisResult`.

The report holds what belongs to *this* run and costs nothing to build:

- ``census`` is derived from artifacts the flow builds anyway, so it is
  filled even with the null recorder: channel counts, mapping trace
  statistics, barrier count, block census;
- ``parallel`` is the synthesis-cache verdict for the run.

Spans and metrics belong to the recorder the run used, not to the
report: read ``rec.spans`` / ``rec.metrics`` from the
:class:`~repro.obs.Recorder` you installed (the CLI writes them with
``--trace-out`` / ``--metrics-out``).  Keeping them out of the report
keeps each synthesis-cache entry to the run's own data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class ObservabilityReport:
    """One run's census and synthesis-cache verdict."""

    #: Structural counts derived from the run's artifacts (always filled).
    census: Dict[str, Any] = field(default_factory=dict)
    #: Synthesis-cache data (see :mod:`repro.parallel`): the cache
    #: verdict for this run (``status`` is ``"hit"``, ``"miss"`` or
    #: ``"bypass"``).  Empty when the cache was not involved.
    parallel: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON-ready mapping."""
        return {"census": self.census, "parallel": self.parallel}

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, default=str)
