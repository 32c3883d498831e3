"""Job execution: a :class:`~repro.server.jobs.JobSpec` in, an outcome out.

This is the seam between the serving layer and the library: everything
here calls the exact same front doors a library user would
(:func:`repro.core.flow.synthesize`, :func:`repro.dse.explore.explore`),
so an artifact produced through the server is byte-identical to one
produced directly — the differential tests in ``tests/server/`` pin this
down.  The synthesis cache engages exactly as it would for a library
call (process-wide configuration, ``use_cache`` override per spec).

Cancellation is cooperative: the ``cancelled`` hook is checked between
the coarse stages here — an explore job checks it before and after
exploration, never inside it — and when it fires, :class:`JobCancelled`
aborts the job.  A job that overruns its deadline mid-stage is still
marked ``timed_out`` by the manager's monitor, which discards the late
result.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from ..core.flow import FlowError, synthesize
from ..core.taskgraph import task_graph_from_model
from ..uml.model import Model
from ..uml.xmi import XmiError, from_xmi_string
from .jobs import JobOutcome, JobSpec

#: Optional hook polled at cancellation checkpoints.
CancelHook = Optional[Callable[[], bool]]


class JobCancelled(Exception):
    """The job's cancellation hook fired at a checkpoint."""


def _checkpoint(cancelled: CancelHook) -> None:
    if cancelled is not None and cancelled():
        raise JobCancelled("job cancelled")


def build_model(spec: JobSpec) -> Model:
    """Materialize the spec's model: a demo factory or inline XMI.

    Demo models are built by the same factories ``repro demo`` uses, so a
    demo job and the equivalent library call share every byte of input.
    """
    if spec.demo:
        from ..apps import crane, didactic, mjpeg, synthetic

        factories = {
            "didactic": didactic.build_model,
            "crane": crane.build_model,
            "synthetic": synthetic.build_model,
            "mjpeg": mjpeg.build_model,
        }
        factory = factories.get(spec.demo)
        if factory is None:
            raise FlowError(
                f"unknown demo model {spec.demo!r}; "
                f"pick one of {sorted(factories)}"
            )
        return factory()
    try:
        return from_xmi_string(spec.model_xmi or "")
    except XmiError as exc:
        raise FlowError(f"cannot parse model_xmi: {exc}") from exc


def _run_synthesize(
    spec: JobSpec, model: Model, cancelled: CancelHook
) -> JobOutcome:
    result = synthesize(model, **spec.options)
    _checkpoint(cancelled)
    payload: Dict[str, Any] = {
        "model": result.caam.name,
        "summary": str(result.summary),
        "blocks": result.caam.count_blocks(),
        "cpus": len(result.plan.cpus),
        "barriers_inserted": result.barriers_inserted,
        "warnings": list(result.warnings),
    }
    cache_info = result.obs.parallel.get("cache")
    if cache_info:
        payload["cache"] = cache_info
    return JobOutcome(
        artifact_name=f"{result.caam.name}.mdl",
        artifact_text=result.mdl_text,
        payload=payload,
    )


def _run_explore(
    spec: JobSpec, model: Model, cancelled: CancelHook
) -> JobOutcome:
    from ..dse.explore import explore, pareto_front

    graph = task_graph_from_model(model)
    _checkpoint(cancelled)
    options = dict(spec.options)
    objective = options.get("objective", "latency")
    candidates = explore(
        graph,
        max_cpus=options.get("max_cpus"),
        objective=objective,
        exhaustive_threshold=options.get("exhaustive_threshold", 8),
        cycles_per_unit=options.get("cycles_per_unit", 50.0),
    )
    _checkpoint(cancelled)
    front = pareto_front(candidates, objective=objective)
    front_doc = [
        {
            "cpus": candidate.cpu_count,
            "metric": candidate.metric,
            "objective": objective,
            "plan": {
                cpu: sorted(candidate.plan.threads_on(cpu))
                for cpu in candidate.plan.cpus
            },
        }
        for candidate in front
    ]
    payload = {
        "model": model.name,
        "threads": len(graph.node_weights),
        "candidates": len(candidates),
        "pareto": front_doc,
    }
    return JobOutcome(
        artifact_name=f"{model.name}.pareto.json",
        artifact_text=json.dumps(front_doc, indent=2) + "\n",
        payload=payload,
    )


def _run_simulate(
    spec: JobSpec, model: Model, cancelled: CancelHook
) -> JobOutcome:
    """Synthesize, then execute the CAAM over a batch of stimuli.

    The batch goes through :meth:`Simulator.run_many`, so one compiled
    slot plan serves every episode; when NumPy is available (and neither
    the spec's ``engine`` option nor ``REPRO_SIM_ENGINE`` overrides it)
    the whole batch runs in one vectorized call on the ``batch`` engine,
    whose output is bit-identical to the looped scalar path.  Results
    are returned as a JSON artifact with one entry per stimulus
    (outputs + monitored signals).
    """
    import os

    from ..simulink import batch as libbatch
    from ..simulink.simulator import ENGINE_BATCH, Simulator

    options = dict(spec.options)
    steps = options.get("steps", 100)
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 0:
        raise FlowError("'steps' must be a non-negative integer")
    stimuli = options.get("stimuli", [{}])
    if not isinstance(stimuli, list) or not all(
        isinstance(s, dict) for s in stimuli
    ):
        raise FlowError("'stimuli' must be a list of stimulus objects")
    if not stimuli:
        raise FlowError("'stimuli' must name at least one episode")
    monitor = options.get("monitor", [])
    if not isinstance(monitor, list) or not all(
        isinstance(p, str) for p in monitor
    ):
        raise FlowError("'monitor' must be a list of block paths")

    synth_options = {
        key: options[key] for key in ("use_cache",) if key in options
    }
    result = synthesize(model, **synth_options)
    _checkpoint(cancelled)
    engine = options.get("engine")
    if (
        engine is None
        and os.environ.get("REPRO_SIM_ENGINE") is None
        and libbatch.numpy_available()
    ):
        engine = ENGINE_BATCH
    simulator = Simulator(result.caam, monitor=monitor, engine=engine)
    episodes = simulator.run_many(steps, stimuli)
    _checkpoint(cancelled)
    episodes_doc = [
        {"outputs": episode.outputs, "signals": episode.signals}
        for episode in episodes
    ]
    payload: Dict[str, Any] = {
        "model": result.caam.name,
        "engine": simulator.engine,
        "steps": steps,
        "episodes": len(episodes),
        "outputs": sorted(episodes[0].outputs),
        "signals": sorted(episodes[0].signals),
    }
    return JobOutcome(
        artifact_name=f"{result.caam.name}.sim.json",
        artifact_text=json.dumps(episodes_doc, indent=2) + "\n",
        payload=payload,
    )


def _run_analyze(
    spec: JobSpec, model: Model, cancelled: CancelHook
) -> JobOutcome:
    """Synthesize, run every analysis pass, return the SARIF artifact.

    The inline payload carries the counts/codes summary plus the SDF
    structured results; the full SARIF 2.1.0 log is the artifact, so a
    client can feed it straight to a code-scanning upload.
    """
    from ..analysis import AnalysisError, analyze_synthesized, pass_names

    options = dict(spec.options)
    suppress = options.get("suppress", [])
    if not isinstance(suppress, list) or not all(
        isinstance(p, str) for p in suppress
    ):
        raise FlowError("'suppress' must be a list of code patterns")
    passes = options.get("passes")
    if passes is not None:
        if not isinstance(passes, list) or not all(
            isinstance(p, str) for p in passes
        ):
            raise FlowError("'passes' must be a list of pass names")
        unknown = sorted(set(passes) - set(pass_names()))
        if unknown:
            raise FlowError(
                f"unknown analysis pass(es) {', '.join(map(repr, unknown))}; "
                f"registered: {', '.join(pass_names())}"
            )
    synth_options = {
        key: options[key] for key in ("use_cache",) if key in options
    }
    synth_options["validate"] = False
    try:
        report = analyze_synthesized(
            model,
            passes=passes,
            suppress=suppress,
            require_deployment=bool(options.get("require_deployment", False)),
            synthesize_options=synth_options,
        )
    except AnalysisError as exc:
        raise FlowError(str(exc)) from exc
    _checkpoint(cancelled)
    payload: Dict[str, Any] = {
        "model": model.name,
        "passes": list(report.passes),
        "counts": report.counts(),
        "codes": report.codes(),
        "max_severity": report.max_severity(),
        "suppressed": len(report.suppressed),
        "sdf": report.info.get("sdf", {}),
    }
    return JobOutcome(
        artifact_name=f"{model.name}.sarif",
        artifact_text=json.dumps(report.to_sarif(), indent=2, sort_keys=True)
        + "\n",
        payload=payload,
    )


def _run_codegen(
    spec: JobSpec, model: Model, cancelled: CancelHook
) -> JobOutcome:
    """Synthesize, then run the static-schedule backend.

    The artifact is the digital-thread trace manifest (the document an
    auditor starts from); the generated sources travel inline in the
    result payload keyed by filename, each already hash-pinned by the
    manifest.
    """
    from ..codegen import CodegenError, generate
    from ..codegen.backend import LANGUAGES
    from ..codegen.trace import flatten_artifacts

    options = dict(spec.options)
    languages = options.get("languages", ["c"])
    if (
        not isinstance(languages, list)
        or not languages
        or not all(isinstance(lang, str) for lang in languages)
    ):
        raise FlowError("'languages' must be a non-empty list of strings")
    unknown = sorted(set(languages) - set(LANGUAGES))
    if unknown:
        raise FlowError(
            f"unknown codegen language(s) {', '.join(map(repr, unknown))}; "
            f"valid languages are {', '.join(LANGUAGES)}"
        )
    synth_options = {
        key: options[key]
        for key in ("use_cache", "auto_allocate")
        if key in options
    }
    result = synthesize(model, **synth_options)
    _checkpoint(cancelled)
    try:
        generated = generate(
            result.caam,
            languages=tuple(languages),
            uml_trace=result.mapping.context.trace,
        )
    except CodegenError as exc:
        raise FlowError(str(exc)) from exc
    _checkpoint(cancelled)
    stats = generated.schedule.stats()
    payload: Dict[str, Any] = {
        "model": result.caam.name,
        "languages": sorted(generated.artifacts),
        "schedule": {
            "pes": stats["pes"],
            "blocks": stats["blocks"],
            "buffers": stats["buffers"],
            "firing_order": list(generated.schedule.firing_order),
        },
        "sources": flatten_artifacts(generated.artifacts),
        "artifact_hashes": {
            entry["file"]: entry["sha256"]
            for entry in generated.manifest["artifacts"]
        },
        "requirements": [
            requirement["id"]
            for requirement in generated.manifest["requirements"]
        ],
    }
    return JobOutcome(
        artifact_name=f"{result.caam.name}.trace_manifest.json",
        artifact_text=generated.manifest_text,
        payload=payload,
    )


def execute(spec: JobSpec, *, cancelled: CancelHook = None) -> JobOutcome:
    """Run one job spec to completion (the manager's default executor)."""
    _checkpoint(cancelled)
    model = build_model(spec)
    _checkpoint(cancelled)
    if spec.kind == "synthesize":
        return _run_synthesize(spec, model, cancelled)
    if spec.kind == "simulate":
        return _run_simulate(spec, model, cancelled)
    if spec.kind == "analyze":
        return _run_analyze(spec, model, cancelled)
    if spec.kind == "codegen":
        return _run_codegen(spec, model, cancelled)
    return _run_explore(spec, model, cancelled)
