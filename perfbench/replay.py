"""In-process replay of a job list through each layer's public functions.

The traced run replays every job step by step, one span per layer call,
so the per-layer numbers come from the same calls the server makes:

    from_xmi_string -> synthesis_cache_key -> ContentCache.get
      (miss) check_model -> resolve_plan -> map_model -> to_ecore_string
             -> OptimizationPipeline.run -> layout_model -> ContentCache.put
    then the job kind's back end (to_mdl, codegen, analysis passes,
    the batch simulator, or task_graph_from_model -> explore -> pareto_front)

The spans of one job share the job's index as their trace id.  Each
replayed artifact must equal the executor's bytes (replay parity), so
the layers timed here are the program the server runs.  The program's
own ambient recorder is left alone: nothing is traced inside it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis import AnalysisReport, analyze, pass_names
from repro.codegen.cemit import generate_c
from repro.codegen.javaemit import generate_java
from repro.codegen.schedule import build_schedule
from repro.codegen.trace import build_manifest, manifest_json
from repro.core.flow import SynthesisResult, resolve_plan
from repro.core.mapping import map_model
from repro.core.optimize import OptimizationPipeline
from repro.core.taskgraph import task_graph_from_model
from repro.dse.explore import explore, pareto_front
from repro.parallel import cache as synthesis_cache
from repro.parallel.cache import DEFAULT_CAPACITY, ContentCache
from repro.parallel.fingerprint import synthesis_cache_key
from repro.server.executor import execute
from repro.simulink.ecore import to_ecore_string
from repro.simulink.layout import layout_model
from repro.simulink.mdl import to_mdl
from repro.simulink.simulator import ENGINE_BATCH, Simulator
from repro.uml.validate import check_model
from repro.uml.xmi import from_xmi_string

from workloads import Job, Plan

ROOT_SPAN = "replay.job"


@dataclass
class Span:
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Spans kept in memory; a stack gives each span its parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, trace_id: int, name: str) -> Iterator[None]:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            trace_id, len(self.spans), parent, name, time.perf_counter()
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: List[Span]) -> Dict[Tuple[int, str], float]:
    """(trace id, name) -> summed self time in seconds.

    A span's self time is its duration minus the part of it that its
    children cover (children of one parent never overlap here, because
    the replay is sequential).
    """
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] = (
                covered.get(span.parent_id, 0.0) + span.end - span.start
            )
    totals: Dict[Tuple[int, str], float] = {}
    for span in spans:
        key = (span.trace_id, span.name)
        own = span.end - span.start - covered.get(span.span_id, 0.0)
        totals[key] = totals.get(key, 0.0) + own
    return totals


class Replayer:
    """Replays jobs; its cache mirrors the server's synthesis cache."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.cache = ContentCache("replay", capacity=DEFAULT_CAPACITY)
        #: Job index -> ("hit" | "miss") of its synthesis lookup.
        self.cache_status: Dict[int, str] = {}
        #: Job index -> (steps simulated, candidates explored).
        self.work: Dict[int, Tuple[int, int]] = {}
        #: Timed job index -> seconds of ``repro.server.executor.execute``.
        self.execute_s: Dict[int, float] = {}

    def run(self, plan: Plan, expected: Dict[str, bytes]) -> List[str]:
        """Time ``execute`` and replay every job; return parity problems.

        Both start from an empty synthesis cache and see the jobs in the
        server's order (warm-up first), so their hits and misses match
        the server's.  They alternate job by job, so both run under the
        same interpreter and memory state.
        """
        synthesis_cache.configure(enabled=None)
        problems = []
        for job in plan.warmup + plan.timed:
            start = time.perf_counter()
            execute(job.spec)
            if job.index >= 0:
                self.execute_s[job.index] = time.perf_counter() - start
            if self.replay(job) != expected[job.key]:
                problems.append(f"job {job.index}: replay artifact differs")
        return problems

    def _synthesize(self, job: Job, model, validate: bool) -> SynthesisResult:
        """The flow, one span per step, behind the content cache."""
        span = self.tracer.span
        trace = job.index
        options = job.spec.options
        auto_allocate = options.get("auto_allocate", False)
        name = options.get("name")
        flow_options = {
            "auto_allocate": auto_allocate,
            "infer_channels": True,
            "insert_barriers": True,
            "layout": True,
            "validate": validate,
            "strict": False,
            "name": name,
        }
        with span(trace, "parallel.cache.key"):
            key = synthesis_cache_key(model, None, flow_options)
        with span(trace, "parallel.cache.get"):
            cached = self.cache.get(key)
        self.cache_status[trace] = "miss" if cached is None else "hit"
        if cached is not None:
            return cached
        if validate:
            with span(trace, "uml.validate"):
                check_model(model)
        with span(trace, "core.allocate"):
            plan, allocation = resolve_plan(
                model, None, auto_allocate=auto_allocate
            )
        with span(trace, "core.map"):
            mapping = map_model(model, plan, name=name)
        with span(trace, "core.intermediate"):
            intermediate = to_ecore_string(mapping.caam)
        with span(trace, "core.optimize"):
            optimization = OptimizationPipeline().run(mapping)
        with span(trace, "simulink.layout"):
            layout_model(mapping.caam)
        result = SynthesisResult(
            caam=mapping.caam,
            plan=plan,
            mapping=mapping,
            optimization=optimization,
            allocation=allocation,
            intermediate_xml=intermediate,
        )
        with span(trace, "parallel.cache.put"):
            self.cache.put(key, result)
        return result

    def replay(self, job: Job) -> bytes:
        """Replay one job; return the artifact it produces."""
        span = self.tracer.span
        trace = job.index
        options = job.spec.options
        with span(trace, ROOT_SPAN):
            with span(trace, "uml.xmi.read"):
                model = from_xmi_string(job.spec.model_xmi)
            if job.kind == "explore":
                with span(trace, "dse.task_graph"):
                    graph = task_graph_from_model(model)
                with span(trace, "dse.explore"):
                    candidates = explore(graph)
                with span(trace, "dse.pareto"):
                    front = pareto_front(candidates)
                self.work[trace] = (0, len(candidates))
                document = [
                    {
                        "cpus": c.cpu_count,
                        "metric": c.metric,
                        "objective": "latency",
                        "plan": {
                            cpu: sorted(c.plan.threads_on(cpu))
                            for cpu in c.plan.cpus
                        },
                    }
                    for c in front
                ]
                with span(trace, "server.executor.serialize"):
                    text = json.dumps(document, indent=2) + "\n"
                return text.encode()
            result = self._synthesize(
                job, model, validate=job.kind != "analyze"
            )
            caam = result.caam
            if job.kind == "synthesize":
                with span(trace, "simulink.mdl_emit"):
                    text = to_mdl(caam)
            elif job.kind == "codegen":
                with span(trace, "codegen.schedule"):
                    schedule = build_schedule(caam)
                    schedule.stats()
                artifacts = {}
                with span(trace, "codegen.emit_c"):
                    artifacts["c"] = generate_c(schedule)
                with span(trace, "codegen.emit_java"):
                    artifacts["java"] = generate_java(schedule)
                with span(trace, "codegen.manifest"):
                    manifest = build_manifest(
                        schedule,
                        artifacts,
                        uml_trace=result.mapping.context.trace,
                    )
                    text = manifest_json(manifest)
            elif job.kind == "analyze":
                report = AnalysisReport(subject=model.name)
                for name in pass_names():
                    with span(trace, f"analysis.pass.{name}"):
                        found = analyze(model, caam, passes=[name])
                    report.diagnostics.extend(found.diagnostics)
                    report.passes.extend(found.passes)
                    report.info.update(found.info)
                with span(trace, "analysis.sarif"):
                    sarif = report.to_sarif()
                with span(trace, "server.executor.serialize"):
                    text = json.dumps(sarif, indent=2, sort_keys=True) + "\n"
            else:  # simulate
                steps = options["steps"]
                stimuli = options["stimuli"]
                with span(trace, "simulink.sim.compile"):
                    simulator = Simulator(caam, engine=ENGINE_BATCH)
                with span(trace, "simulink.sim.run"):
                    episodes = simulator.run_many(steps, stimuli)
                self.work[trace] = (steps * len(stimuli), 0)
                document = [
                    {"outputs": e.outputs, "signals": e.signals}
                    for e in episodes
                ]
                with span(trace, "server.executor.serialize"):
                    text = json.dumps(document, indent=2) + "\n"
        return text.encode()
