"""Job execution: a :class:`~repro.server.jobs.JobSpec` in, an outcome out.

The one path from a job to a library result, for the server and for the
CLI's model commands.  Each kind's public ``run_<kind>`` takes a spec
that :meth:`JobSpec.validate` admitted, resolves its model, calls the
same front doors a library user would (so artifacts are byte-identical
to a direct call; ``tests/server/`` pins this), types the errors as
:class:`~repro.core.flow.FlowError` and returns the library object.  The
CLI renders that object; :func:`execute` encodes it as the served
:class:`JobOutcome`.  Inline XMI is synthesized through
:func:`repro.core.flow.synthesize_xmi`, keyed on the text, so a cache
hit skips the parse for every kind but ``analyze`` (whose passes read
the model) and ``explore`` (which is not cached).

Cancellation is cooperative: the ``cancelled`` hook is checked between
the coarse stages — never inside exploration or a simulation — and when
it fires, :class:`JobCancelled` aborts the job.  A job that overruns its
deadline mid-stage is marked ``timed_out`` by the manager's monitor,
which discards the late result.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Optional

from ..core.flow import (
    FlowError,
    SynthesisResult,
    synthesize,
    synthesize_xmi,
)
from ..core.taskgraph import task_graph_from_model
from ..uml.model import Model
from ..uml.xmi import XmiError, from_xmi_string
from .jobs import JobOutcome, JobSpec

if TYPE_CHECKING:
    from ..analysis import AnalysisReport
    from ..codegen.backend import GenerationResult

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
        from ..apps import DEMOS

        factory = DEMOS.get(spec.demo)
        if factory is None:
            raise FlowError(
                f"unknown demo model {spec.demo!r}; "
                f"pick one of {sorted(DEMOS)}"
            )
        return factory()
    try:
        return from_xmi_string(spec.model_xmi or "")
    except XmiError as exc:
        raise FlowError(f"cannot parse model_xmi: {exc}") from exc


def _synthesized(spec: JobSpec, **options: Any) -> SynthesisResult:
    """The spec's model, synthesized behind the synthesis cache.

    Inline XMI is keyed on its text, so a cache hit never parses it; a
    demo model is built and keyed by structure, like a library call.
    """
    if not spec.model_xmi:
        return synthesize(build_model(spec), **options)
    try:
        return synthesize_xmi(spec.model_xmi, **options)
    except XmiError as exc:
        raise FlowError(f"cannot parse model_xmi: {exc}") from exc


def _synthesis_options(spec: JobSpec, *names: str) -> Dict[str, Any]:
    """The spec's options among ``names`` (those synthesis takes)."""
    return {name: spec.options[name] for name in names if name in spec.options}


def run_synthesize(
    spec: JobSpec, cancelled: CancelHook = None
) -> SynthesisResult:
    """Synthesize the spec's model with the spec's options."""
    return _synthesized(spec, **spec.options)


def _encode_synthesize(result: SynthesisResult) -> JobOutcome:
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


class Exploration(NamedTuple):
    """Every candidate allocation :func:`run_explore` rated, and the front."""

    model: str
    threads: int
    objective: str
    candidates: list
    front: list


def run_explore(spec: JobSpec, cancelled: CancelHook = None) -> Exploration:
    """Explore the spec model's thread allocations; keep the Pareto front."""
    from ..dse.explore import ExplorationError, explore, pareto_front

    model = build_model(spec)
    _checkpoint(cancelled)
    graph = task_graph_from_model(model)
    _checkpoint(cancelled)
    options = spec.options
    objective = options.get("objective", "latency")
    try:
        candidates = explore(
            graph,
            max_cpus=options.get("max_cpus"),
            objective=objective,
            exhaustive_threshold=options.get("exhaustive_threshold", 8),
            cycles_per_unit=options.get("cycles_per_unit", 50.0),
        )
    except ExplorationError as exc:
        raise FlowError(str(exc)) from exc
    return Exploration(
        model=model.name,
        threads=len(graph.node_weights),
        objective=objective,
        candidates=candidates,
        front=pareto_front(candidates, objective=objective),
    )


def _encode_explore(found: Exploration) -> JobOutcome:
    front_doc = [
        {
            "cpus": candidate.cpu_count,
            "metric": candidate.metric,
            "objective": found.objective,
            "plan": {
                cpu: sorted(candidate.plan.threads_on(cpu))
                for cpu in candidate.plan.cpus
            },
        }
        for candidate in found.front
    ]
    try:
        artifact = json.dumps(front_doc, indent=2, allow_nan=False)
    except ValueError as exc:  # a metric overflowed to infinity
        raise FlowError(
            f"cost estimate out of range ({exc}); lower 'cycles_per_unit'"
        ) from exc
    payload = {
        "model": found.model,
        "threads": found.threads,
        "candidates": len(found.candidates),
        "pareto": front_doc,
    }
    return JobOutcome(
        artifact_name=f"{found.model}.pareto.json",
        artifact_text=artifact + "\n",
        payload=payload,
    )


def _is_real(value: Any) -> bool:
    """True for a finite int or float sample (``true`` is not a number)."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


class Simulation(NamedTuple):
    """What :func:`run_simulate` ran: one episode per stimulus."""

    model: str
    engine: str
    steps: int
    episodes: list


def run_simulate(spec: JobSpec, cancelled: CancelHook = None) -> Simulation:
    """Synthesize, then execute the CAAM over a batch of stimuli.

    The batch goes through :meth:`Simulator.run_many`, so one compiled
    slot plan serves every episode; when NumPy is available (and neither
    the spec's ``engine`` option nor ``REPRO_SIM_ENGINE`` overrides it)
    the whole batch runs in one vectorized call on the ``batch`` engine,
    whose output is bit-identical to the looped scalar path.  The job's
    artifact is a JSON document with one entry per stimulus (outputs +
    monitored signals).
    """
    import os

    from ..simulink import batch as libbatch
    from ..simulink.model import SimulinkError
    from ..simulink.simulator import ENGINE_BATCH, Simulator

    options = spec.options
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
    for stimulus in stimuli:
        for inport, samples in stimulus.items():
            if not (
                isinstance(inport, str)
                and isinstance(samples, list)
                and all(_is_real(x) for x in samples)
            ):
                raise FlowError(
                    f"stimulus {inport!r} must be a list of finite numbers"
                )
    monitor = options.get("monitor", [])
    if not isinstance(monitor, list) or not all(
        isinstance(p, str) for p in monitor
    ):
        raise FlowError("'monitor' must be a list of block paths")

    result = _synthesized(spec, **_synthesis_options(spec, "use_cache"))
    _checkpoint(cancelled)
    engine = options.get("engine")
    if (
        engine is None
        and os.environ.get("REPRO_SIM_ENGINE") is None
        and libbatch.numpy_available()
    ):
        engine = ENGINE_BATCH
    try:
        simulator = Simulator(result.caam, monitor=monitor, engine=engine)
        episodes = simulator.run_many(steps, stimuli)
    except SimulinkError as exc:  # a bad monitor path, an algebraic loop
        raise FlowError(str(exc)) from exc
    return Simulation(
        model=result.caam.name,
        engine=simulator.engine,
        steps=steps,
        episodes=episodes,
    )


def _encode_simulate(sim: Simulation) -> JobOutcome:
    episodes_doc = [
        {"outputs": episode.outputs, "signals": episode.signals}
        for episode in sim.episodes
    ]
    payload: Dict[str, Any] = {
        "model": sim.model,
        "engine": sim.engine,
        "steps": sim.steps,
        "episodes": len(sim.episodes),
        "outputs": sorted(sim.episodes[0].outputs),
        "signals": sorted(sim.episodes[0].signals),
    }
    return JobOutcome(
        artifact_name=f"{sim.model}.sim.json",
        artifact_text=json.dumps(episodes_doc, indent=2) + "\n",
        payload=payload,
    )


def run_analyze(
    spec: JobSpec, cancelled: CancelHook = None
) -> AnalysisReport:
    """Synthesize, then run the analysis passes over the spec's model.

    The job's inline payload carries the counts/codes summary plus the
    SDF structured results; the full SARIF 2.1.0 log is the artifact, so
    a client can feed it straight to a code-scanning upload.
    """
    from ..analysis import analyze_synthesized

    model = build_model(spec)
    _checkpoint(cancelled)
    return analyze_synthesized(
        model,
        passes=spec.options.get("passes"),
        suppress=spec.options.get("suppress", []),
        require_deployment=spec.options.get("require_deployment", False),
        synthesize_options=_synthesis_options(spec, "use_cache"),
        xmi=spec.model_xmi,
    )


def _encode_analyze(report: AnalysisReport) -> JobOutcome:
    payload: Dict[str, Any] = {
        "model": report.subject,
        "passes": list(report.passes),
        "counts": report.counts(),
        "codes": report.codes(),
        "max_severity": report.max_severity(),
        "suppressed": len(report.suppressed),
        "sdf": report.info.get("sdf", {}),
    }
    return JobOutcome(
        artifact_name=f"{report.subject}.sarif",
        artifact_text=json.dumps(report.to_sarif(), indent=2, sort_keys=True)
        + "\n",
        payload=payload,
    )


def run_codegen(
    spec: JobSpec, cancelled: CancelHook = None
) -> GenerationResult:
    """Synthesize, then run the static-schedule backend.

    The job's artifact is its digital-thread trace manifest (the document an
    auditor starts from); the generated sources travel inline in the
    result payload keyed by filename, each already hash-pinned by the
    manifest.
    """
    from ..codegen import CodegenError, generate

    result = _synthesized(
        spec, **_synthesis_options(spec, "use_cache", "auto_allocate")
    )
    _checkpoint(cancelled)
    try:
        return generate(
            result.caam,
            languages=tuple(spec.options.get("languages", ["c"])),
            uml_trace=result.mapping.context.trace,
        )
    except CodegenError as exc:
        raise FlowError(str(exc)) from exc


def _encode_codegen(generated: GenerationResult) -> JobOutcome:
    from ..codegen.trace import flatten_artifacts

    stats = generated.schedule.stats()
    payload: Dict[str, Any] = {
        "model": generated.schedule.name,
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
        artifact_name=f"{generated.schedule.name}.trace_manifest.json",
        artifact_text=generated.manifest_text,
        payload=payload,
    )


#: Job kind -> (run half, encode half).
_KINDS = {
    "synthesize": (run_synthesize, _encode_synthesize),
    "explore": (run_explore, _encode_explore),
    "simulate": (run_simulate, _encode_simulate),
    "analyze": (run_analyze, _encode_analyze),
    "codegen": (run_codegen, _encode_codegen),
}


def execute(spec: JobSpec, *, cancelled: CancelHook = None) -> JobOutcome:
    """Run one job spec to completion (the manager's default executor)."""
    _checkpoint(cancelled)
    run, encode = _KINDS[spec.kind]
    value = run(spec, cancelled)
    _checkpoint(cancelled)
    return encode(value)
