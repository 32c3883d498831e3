"""End-to-end design flow (paper Figs. 1 and 2).

:func:`synthesize` is the library's front door: it drives the four steps of
the paper's mapping flow —

1. the UML model (built programmatically or read from XMI);
2. model-to-model transformation against the Simulink CAAM meta-model
   (:mod:`repro.core.mapping`), with thread allocation taken from the
   deployment diagram or computed by linear clustering (§4.2.3);
3. optimization: channel inference (§4.2.1) and temporal-barrier insertion
   (§4.2.2);
4. model-to-text generation of the ``.mdl`` file.

The heterogeneous back-ends of Fig. 1 (FSM code generation for control-flow
subsystems, multithreaded Java when no Simulink compiler is available) live
in :mod:`repro.backends` and reuse steps 1–3 of this flow.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..obs import recorder as _obs
from ..obs.report import ObservabilityReport
from ..parallel import cache as _syn_cache
from ..parallel.fingerprint import synthesis_cache_key
from ..simulink.caam import CaamModel, CaamSummary, validate_caam
from ..simulink.ecore import to_ecore_string
from ..simulink.mdl import to_mdl
from ..uml.deployment import DeploymentPlan
from ..uml.model import Model
from ..uml.validate import check_model
from .allocation import AllocationResult, allocate_from_model
from .mapping import MappingError, MappingResult, map_model
from .optimize import OptimizationPipeline, OptimizationReport

log = logging.getLogger(__name__)


class FlowError(Exception):
    """Raised when the synthesis flow cannot complete.

    ``FlowError`` (and its subclasses other than
    :class:`TransientFlowError`) is **deterministic**: the same model and
    options will fail the same way every time, so retrying is pointless.
    The batch server (:mod:`repro.server`) uses this distinction — see
    :func:`is_transient`.
    """


class TransientFlowError(FlowError):
    """A failure caused by the execution substrate, not the model.

    Cache/journal I/O errors and similar environmental hiccups raise (or
    are classified as) this; a retry with fresh resources may well succeed.
    """


#: Exception types considered retry-worthy even when raised outside the
#: flow proper (cache and journal I/O, interrupted syscalls).
_TRANSIENT_TYPES = (
    TransientFlowError,
    OSError,
    EOFError,
    BrokenPipeError,
    ConnectionError,
    MemoryError,
)


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` is worth retrying (substrate failure, not model).

    Deterministic :class:`FlowError`\\ s — bad models, impossible
    allocations, strict-mode escalations — are never transient; worker
    crashes and I/O errors are.
    """
    if isinstance(exc, TransientFlowError):
        return True
    if isinstance(exc, FlowError):
        return False
    return isinstance(exc, _TRANSIENT_TYPES)


@dataclass
class SynthesisResult:
    """Everything produced by one run of the flow."""

    caam: CaamModel
    plan: DeploymentPlan
    mapping: MappingResult
    optimization: OptimizationReport
    allocation: Optional[AllocationResult] = None
    #: Intermediate artifact of step 2 (E-core XML, pre-optimization).
    intermediate_xml: str = ""
    #: Per-run census and synthesis-cache verdict (see
    #: :mod:`repro.obs.report`); spans and metrics stay on the recorder.
    obs: ObservabilityReport = field(default_factory=ObservabilityReport)

    @property
    def mdl_text(self) -> str:
        """The final ``.mdl`` artifact (step 4)."""
        return to_mdl(self.caam)

    @property
    def summary(self) -> CaamSummary:
        return self.caam.summary()

    @property
    def warnings(self) -> List[str]:
        return list(self.mapping.warnings)

    @property
    def barriers_inserted(self) -> int:
        barriers = self.optimization.barriers
        return barriers.count if barriers is not None else 0

    def write_mdl(self, path: str) -> None:
        """Write the final ``.mdl`` artifact to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.mdl_text)

    def mapping_report(self) -> str:
        """Human-readable trace of the model-to-model transformation.

        One line per trace link: which rule fired, the UML source element
        and the Simulink element it produced — the MDE audit trail the
        paper's QVT/ATL tooling would provide.
        """
        lines = [f"mapping report for {self.caam.name!r}"]
        for link in self.mapping.context.trace.links():
            source = getattr(link.source, "qualified_name", "") or getattr(
                link.source, "name", ""
            ) or repr(link.source)
            operation = getattr(link.source, "operation", None)
            if operation:
                sender = getattr(link.source.sender, "name", "?")
                receiver = getattr(link.source.receiver, "name", "?")
                source = f"{sender}->{receiver}.{operation}"
            target = getattr(link.target, "path", None) or getattr(
                link.target, "name", repr(link.target)
            )
            lines.append(f"  [{link.rule:<20}] {source} -> {target}")
        lines.append(f"  ({len(self.mapping.context.trace)} trace links)")
        return "\n".join(lines)


def resolve_plan(
    model: Model, plan: Optional[DeploymentPlan] = None, *, auto_allocate: bool = False
) -> (DeploymentPlan, Optional[AllocationResult]):
    """Determine the thread→CPU allocation.

    Priority: an explicit ``plan`` argument, then the model's deployment
    diagram, then (with ``auto_allocate`` or when no diagram exists) the
    automatic linear-clustering allocation — "the use of this algorithm
    makes the deployment diagram unnecessary".
    """
    if plan is not None:
        return plan, None
    if not auto_allocate and model.nodes:
        derived = DeploymentPlan.from_nodes(model.nodes)
        if len(derived):
            return derived, None
    allocation = allocate_from_model(model)
    if not len(allocation.plan):
        raise FlowError(
            "no deployment information: the model has neither <<SAengine>> "
            "nodes nor thread communication to cluster"
        )
    return allocation.plan, allocation


def synthesize(
    model: Model,
    plan: Optional[DeploymentPlan] = None,
    *,
    auto_allocate: bool = False,
    behaviors: Optional[Dict[str, Callable]] = None,
    infer_channels: bool = True,
    insert_barriers: bool = True,
    layout: bool = True,
    validate: bool = True,
    strict: bool = False,
    name: Optional[str] = None,
    use_cache: Optional[bool] = None,
) -> SynthesisResult:
    """Run the full UML → Simulink CAAM synthesis flow.

    Parameters
    ----------
    model:
        The source UML model.
    plan:
        Explicit thread→CPU allocation; overrides both the deployment
        diagram and the automatic allocation.
    auto_allocate:
        Ignore the deployment diagram and run the §4.2.3 clustering.
    behaviors:
        ``{operation name: callable}`` — executable behaviour attached to
        the generated S-functions.
    infer_channels / insert_barriers:
        Toggle the §4.2.1 / §4.2.2 optimization passes (the ablation
        benchmarks switch these off).
    layout:
        Assign diagram positions to every generated block so the emitted
        ``.mdl`` opens as a readable diagram.
    validate:
        Run UML well-formedness checks before mapping.
    strict:
        Escalate mapping inference warnings to errors.
    name:
        Name of the generated CAAM (defaults to the UML model name).
    use_cache:
        ``True``/``False`` override the process-wide synthesis-cache
        configuration (:func:`repro.parallel.configure_synthesis_cache`,
        ``REPRO_CACHE_DIR``, CLI ``--cache-dir``/``--no-cache``) for this
        call; ``None`` defers to it.  A hit short-circuits the whole flow
        and returns a fresh copy of the cached result — byte-identical
        ``mdl_text`` and mapping report, see ``docs/parallel.md``.  Runs
        with ``behaviors`` bypass the cache (callables are not
        content-addressable).
    """
    rec = _obs.get()
    rec.incr("flow.synthesize.calls")

    if use_cache is False:
        cache = None
    elif use_cache:
        cache = _syn_cache.force_synthesis_cache()
    else:
        cache = _syn_cache.synthesis_cache()
    cache_key: Optional[str] = None
    parallel_info: Dict[str, object] = {}
    if cache is not None and behaviors is None:
        cache_key = synthesis_cache_key(
            model,
            plan,
            {
                "auto_allocate": auto_allocate,
                "infer_channels": infer_channels,
                "insert_barriers": insert_barriers,
                "layout": layout,
                "validate": validate,
                "strict": strict,
                "name": name,
            },
        )
        cached = cache.get(cache_key)
        if cached is not None:
            cached.obs.parallel = dict(cached.obs.parallel)
            cached.obs.parallel["cache"] = {
                "status": "hit",
                "key": cache_key[:16],
            }
            log.info(
                "synthesis cache hit for %r (key %s)",
                model.name,
                cache_key[:16],
            )
            return cached
        parallel_info["cache"] = {"status": "miss", "key": cache_key[:16]}
    elif cache is not None:
        parallel_info["cache"] = {"status": "bypass", "reason": "behaviors"}

    with rec.span(
        "flow.synthesize", category="flow", model=model.name
    ) as root:
        if validate:
            with rec.span("flow.validate", category="flow"):
                check_model(model)
        with rec.span("flow.allocate", category="flow") as span:
            resolved_plan, allocation = resolve_plan(
                model, plan, auto_allocate=auto_allocate
            )
            span.set(
                cpus=len(resolved_plan.cpus),
                automatic=allocation is not None,
            )
        with rec.span("flow.map", category="flow"):
            mapping = map_model(
                model,
                resolved_plan,
                name=name,
                behaviors=behaviors,
                strict=strict,
            )
        with rec.span("flow.intermediate", category="flow"):
            intermediate = to_ecore_string(mapping.caam)
        with rec.span("flow.optimize", category="flow"):
            pipeline = OptimizationPipeline(
                infer_channels_enabled=infer_channels,
                insert_barriers=insert_barriers,
            )
            optimization = pipeline.run(mapping)
        if layout:
            with rec.span("flow.layout", category="flow"):
                from ..simulink.layout import layout_model

                layout_model(mapping.caam)
        root.set(blocks=mapping.caam.count_blocks())
    result = SynthesisResult(
        caam=mapping.caam,
        plan=resolved_plan,
        mapping=mapping,
        optimization=optimization,
        allocation=allocation,
        intermediate_xml=intermediate,
        obs=_build_report(
            mapping, optimization, resolved_plan, parallel_info
        ),
    )
    if cache is not None and cache_key is not None:
        cache.put(cache_key, result)
    log.info(
        "synthesized %r: %d blocks on %d CPU(s), %d barrier(s)",
        result.caam.name,
        result.caam.count_blocks(),
        len(resolved_plan.cpus),
        result.barriers_inserted,
    )
    return result


def _build_report(
    mapping: MappingResult,
    optimization: OptimizationReport,
    plan: DeploymentPlan,
    parallel: Dict[str, object],
) -> ObservabilityReport:
    """Assemble the run's :class:`ObservabilityReport`.

    The census is computed from artifacts the flow built anyway, so it
    costs nothing extra and is the same under any recorder.
    """
    channels = optimization.channels
    barriers = optimization.barriers
    census = {
        "model": mapping.caam.name,
        "cpus": len(plan.cpus),
        "blocks": mapping.caam.count_blocks(),
        "trace": mapping.context.trace.stats(),
        "channels": {
            "intra_cpu": channels.intra_count if channels else 0,
            "inter_cpu": channels.inter_count if channels else 0,
            "system_in": len(channels.system_inputs) if channels else 0,
            "system_out": len(channels.system_outputs) if channels else 0,
        },
        "barriers_inserted": barriers.count if barriers else 0,
        "warnings": len(mapping.warnings),
    }
    return ObservabilityReport(census=census, parallel=parallel)


def synthesize_to_mdl(model: Model, path: str, **kwargs: object) -> SynthesisResult:
    """Synthesize and write the ``.mdl`` file in one call.

    Keyword arguments are validated against :func:`synthesize`'s
    signature up front, so a typo (``auto_alocate=True``) raises a clear
    ``TypeError`` instead of being silently swallowed.
    """
    import inspect

    accepted = {
        name
        for name, parameter in inspect.signature(synthesize).parameters.items()
        if parameter.kind
        in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
        and name != "model"
    }
    unknown = sorted(set(kwargs) - accepted)
    if unknown:
        raise TypeError(
            "synthesize_to_mdl() got unexpected keyword argument(s) "
            f"{', '.join(repr(n) for n in unknown)}; "
            f"valid options are {', '.join(sorted(accepted))}"
        )
    result = synthesize(model, **kwargs)  # type: ignore[arg-type]
    result.write_mdl(path)
    return result
