"""Pass registry and the analyzer driver.

A *pass* is a named function from an :class:`AnalysisContext` (the UML
model and/or the synthesized CAAM, plus options and a shared ``info``
dict) to a list of diagnostics.  The default registry ships the four
tentpole passes — ``structure`` (RA1xx), ``channels`` (RA2xx), ``fsm``
(RA3xx), ``sdf`` + ``dataflow`` (RA4xx) — and is open: registering a new
pass makes it run everywhere the analyzer is wired (CLI, server job
kind, zoo harness) with obs spans and counters for free.

:func:`analyze` is the one front door: give it a UML model, a CAAM, or
both; passes that need the missing level skip themselves.  Every pass
runs under an ``analysis.pass.<name>`` span and bumps
``analysis.pass.<name>.findings``, so pass timings land in the metrics
JSON whenever a recorder is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs import recorder as _obs
from .diagnostics import AnalysisError, AnalysisReport, Diagnostic
from .passes import channels as _channels
from .passes import dataflow as _dataflow
from .passes import fsm as _fsm
from .passes import sdf as _sdf
from .passes import structure as _structure


@dataclass
class AnalysisContext:
    """What a pass sees: the two model levels plus run configuration."""

    model: Optional[Any] = None
    caam: Optional[Any] = None
    options: Dict[str, Any] = field(default_factory=dict)
    #: Shared structured-results dict — becomes ``AnalysisReport.info``.
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class AnalysisPass:
    """One registered pass."""

    name: str
    #: Diagnostic code family/families this pass may emit (documentation
    #: and test contract, not enforcement).
    codes: str
    run: Callable[[AnalysisContext], List[Diagnostic]]


#: Registration order is execution order.
_REGISTRY: Dict[str, AnalysisPass] = {}


def register_pass(
    name: str, codes: str, run: Callable[[AnalysisContext], List[Diagnostic]]
) -> AnalysisPass:
    """Register (or replace) a pass under ``name``."""
    entry = AnalysisPass(name=name, codes=codes, run=run)
    _REGISTRY[name] = entry
    return entry


def registered_passes() -> List[AnalysisPass]:
    """All passes, in registration (execution) order."""
    return list(_REGISTRY.values())


def pass_names() -> List[str]:
    """Registered pass names, in execution order."""
    return [entry.name for entry in _REGISTRY.values()]


register_pass("structure", "RA1xx", _structure.run)
register_pass("channels", "RA2xx", _channels.run)
register_pass("fsm", "RA3xx", _fsm.run)
register_pass("sdf", "RA401-RA402,RA406", _sdf.run)
register_pass("dataflow", "RA403-RA405", _dataflow.run)


def analyze(
    model: Optional[Any] = None,
    caam: Optional[Any] = None,
    *,
    subject: Optional[str] = None,
    passes: Optional[Sequence[str]] = None,
    suppress: Sequence[str] = (),
    require_deployment: bool = False,
    options: Optional[Dict[str, Any]] = None,
) -> AnalysisReport:
    """Run the registered passes over a model and/or its CAAM.

    Parameters
    ----------
    model, caam:
        The UML front-end model and/or the synthesized CAAM.  At least
        one is required; passes needing the missing level skip.
    subject:
        Display name for the report (defaults to the model's name).
    passes:
        Pass names to run (default: all registered, in order).
    suppress:
        Suppression patterns (``RA203``, ``RA2xx``, ``RA2*``); matching
        findings land in ``report.suppressed`` instead.
    require_deployment:
        Forwarded to the structure pass (RA106).
    options:
        Extra per-pass options merged into the context.
    """
    if model is None and caam is None:
        raise AnalysisError("analyze() needs a UML model, a CAAM, or both")
    if subject is None:
        source = model if model is not None else caam
        subject = getattr(source, "name", "model")

    selected = list(passes) if passes is not None else pass_names()
    unknown = [name for name in selected if name not in _REGISTRY]
    if unknown:
        raise AnalysisError(
            f"unknown analysis pass(es) {', '.join(map(repr, unknown))}; "
            f"registered: {', '.join(pass_names())}"
        )

    context = AnalysisContext(
        model=model,
        caam=caam,
        options={"require_deployment": require_deployment, **(options or {})},
    )
    report = AnalysisReport(subject=subject)
    rec = _obs.get()
    with rec.span("analysis.analyze", category="analysis", subject=subject):
        for name in selected:
            entry = _REGISTRY[name]
            with rec.span(
                f"analysis.pass.{name}", category="analysis"
            ) as span:
                found = entry.run(context)
                span.set(findings=len(found))
            rec.incr(f"analysis.pass.{name}.findings", len(found))
            report.extend(found, suppress)
            report.passes.append(name)
    report.info.update(context.info)
    for severity, count in report.counts().items():
        if count:
            rec.incr(f"analysis.diagnostics.{severity}", count)
    rec.incr("analysis.runs")
    return report


def analyze_synthesized(
    model: Any,
    *,
    subject: Optional[str] = None,
    passes: Optional[Sequence[str]] = None,
    suppress: Sequence[str] = (),
    require_deployment: bool = False,
    synthesize_options: Optional[Dict[str, Any]] = None,
    xmi: Optional[str] = None,
) -> AnalysisReport:
    """Analyze a UML model end to end: synthesize, then run every pass.

    Synthesis runs with ``validate=False`` so broken models still get a
    full front-end report; when the flow itself fails, the CAAM-side
    passes are skipped and an ``RA108`` warning records why.  ``xmi``
    is the text ``model`` was read from, if any: synthesis is then
    cached under that text (:func:`repro.core.flow.synthesize_xmi`).
    """
    from ..core.flow import synthesize, synthesize_xmi

    defaults: Dict[str, Any] = {"validate": False}
    defaults.update(synthesize_options or {})
    caam = None
    failure: Optional[str] = None
    try:
        if xmi is None:
            caam = synthesize(model, **defaults).caam
        else:
            caam = synthesize_xmi(xmi, model=model, **defaults).caam
    except Exception as exc:  # noqa: BLE001 - analysis must not crash
        failure = f"{type(exc).__name__}: {exc}"
    report = analyze(
        model,
        caam,
        subject=subject,
        passes=passes,
        suppress=suppress,
        require_deployment=require_deployment,
    )
    if failure is not None:
        report.extend(
            [
                Diagnostic(
                    code="RA108",
                    severity="warning",
                    message=(
                        f"model could not be synthesized; CAAM passes "
                        f"were skipped ({failure})"
                    ),
                    location="flow",
                )
            ],
            suppress,
        )
    return report
