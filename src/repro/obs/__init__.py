"""Observability substrate: structured tracing, metrics, and profiling.

``repro.obs`` instruments the whole package — the synthesis flow, the
transformation engine, both simulators, and the design-space explorer —
with three coordinated facilities:

- a **span tracer** (:class:`Recorder`): nested context-manager spans
  carrying wall/CPU time and free-form attributes;
- a **metrics registry** (:class:`MetricsRegistry`): counters, gauges,
  and timers with a JSON snapshot; every closed span auto-feeds a timer
  under its own name, so pass timings come for free;
- a **Chrome-trace exporter** (:func:`to_chrome_trace`): the recorded
  spans as a ``chrome://tracing`` / Perfetto ``trace_event`` document.

Disabled is the default and costs nothing: all instrumented call sites
dispatch through the module-level current recorder, which starts as the
:data:`NULL` no-op singleton.  Enable per scope::

    from repro import obs
    from repro.core import synthesize

    with obs.use(obs.Recorder()) as rec:
        result = synthesize(model)
    obs.write_chrome_trace(rec.spans, "trace.json")   # open in Perfetto
    print(rec.metrics.to_json())                      # counters/gauges/timers

or process-wide with :func:`enable` / :func:`disable`.  The CLI exposes
the same switches as ``repro --trace-out FILE --metrics-out FILE -v``.
"""

from .chrometrace import to_chrome_trace, write_chrome_trace
from .logsetup import configure_logging, log_fields
from .metrics import HistogramStat, MetricsRegistry, TimerStat
from .recorder import (
    NULL,
    NullRecorder,
    Recorder,
    Span,
    active,
    current_span_id,
    current_trace_id,
    disable,
    enable,
    get,
    set_recorder,
    use,
)
from .report import ObservabilityReport
from .slo import SloEngine, SloTarget, default_server_targets

__all__ = [
    "NULL",
    "HistogramStat",
    "MetricsRegistry",
    "NullRecorder",
    "ObservabilityReport",
    "Recorder",
    "SloEngine",
    "SloTarget",
    "Span",
    "TimerStat",
    "active",
    "configure_logging",
    "current_span_id",
    "current_trace_id",
    "default_server_targets",
    "disable",
    "enable",
    "get",
    "log_fields",
    "set_recorder",
    "to_chrome_trace",
    "use",
    "write_chrome_trace",
]
