"""Seeded, parameterized generation of full UML-level scenarios.

The repository ships four hand-built case studies (didactic, crane,
synthetic, mjpeg); the zoo multiplies them into *hundreds* of models the
authors never wrote.  Each scenario is drawn from one of six **families**
— the structural patterns the paper's front-end must absorb — and is a
complete :class:`repro.uml.model.Model` plus the executable behaviours
and simulation workload needed to drive the whole flow
(map → optimize → mdl → simulate):

``pipeline``
    A linear chain of threads (the mjpeg idiom): IO read at the head,
    per-thread S-function/Platform compute, Set/Get channels between
    stages (explicit ``get`` like didactic or implicit variable
    consumption like mjpeg), IO write at the tail.
``fanout``
    One source thread scattering to parallel workers and a sink folding
    the results through binary Platform blocks — scatter/gather
    topologies with explicit multi-CPU deployments.
``layered``
    A layered random DAG with weighted edges expressed as ``loop``
    combined fragments (the synthetic §5.2 idiom), exercising the task
    graph extraction and the §4.2.3 automatic allocation.
``cyclic``
    A deliberate cyclic data path (the crane idiom: the control law
    reads the variable the limiter produces later), which the §4.2.2
    temporal-barrier pass must break with a ``UnitDelay``.
``fsm``
    A control-flow subsystem: a small dataflow model plus a UML state
    machine (flat ring with guarded transitions) and a seeded event
    trace for the FSM simulator and code generators.
``hybrid``
    Simulink + FSM in one model: a layered dataflow part and one or two
    state machines, one with a composite state so the flattening runs.

Everything is a pure function of ``(seed, index, family)``: generation
uses a dedicated :class:`random.Random` per scenario (never the global
RNG), parameters are frozen into a JSON-serializable
:class:`ScenarioParams`, and :func:`build_scenario` reconstructs the
identical model from the parameters alone — which is what makes the
corpus manifest (:mod:`repro.zoo.manifest`) reproducible byte-for-byte
across machines and PRs.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..uml.builder import ModelBuilder
from ..uml.model import Model
from ..uml.statemachine import (
    Pseudostate,
    Region,
    State,
    StateMachine,
    Transition,
)

#: Scenario families, in the order ``generate_corpus`` cycles through them.
FAMILIES = ("pipeline", "fanout", "layered", "cyclic", "fsm", "hybrid")

#: Version of the generator's drawing logic.  Bump whenever a change makes
#: the same ``(seed, index)`` produce a different model, so persisted
#: manifests say which generation they came from.
GENERATOR_VERSION = 1


class ZooError(Exception):
    """Raised on invalid generator/corpus parameters."""


@dataclass(frozen=True)
class FsmSpec:
    """A generated state machine, as pure data.

    ``transitions`` rows are ``(source, target, event, guard, action)``;
    ``composite`` optionally names ``(parent, (substates...))`` — the
    parent state gains an inner region so the lowering's flattening path
    runs.  ``trace`` is the seeded event sequence the harness feeds the
    FSM simulator.
    """

    name: str
    states: Tuple[str, ...]
    initial: str
    events: Tuple[str, ...]
    transitions: Tuple[Tuple[str, str, str, str, str], ...]
    variables: Tuple[Tuple[str, float], ...] = ()
    composite: Optional[Tuple[str, Tuple[str, ...]]] = None
    trace: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioParams:
    """Everything needed to rebuild one scenario, as frozen JSON-able data.

    ``edges`` rows are ``(producer, consumer, channel, weight, explicit)``:
    a Set/Get channel from producer to consumer; ``weight > 1`` wraps the
    send in a ``loop`` fragment (task-graph edge weight); ``explicit``
    adds the consumer-side ``get`` call (didactic idiom) instead of
    implicit variable consumption (mjpeg idiom).

    ``compute`` rows are ``(thread, op, kind, a, b)``: thread-local
    computation ``y = a*x + b`` realized as ``kind`` — ``"sfun"``
    (self-call S-function), ``"class"`` (operation on a passive-class
    instance) or ``"gain"`` (a ``Platform.gain`` + ``Platform.add``
    pre-defined block pair).

    ``cpus`` lists explicit ``(cpu, (threads...))`` deployments; empty
    means no deployment diagram (the flow auto-allocates via §4.2.3).
    """

    name: str
    family: str
    seed: int
    index: int
    threads: Tuple[str, ...]
    cpus: Tuple[Tuple[str, Tuple[str, ...]], ...]
    edges: Tuple[Tuple[str, str, str, int, bool], ...]
    io_reads: Tuple[Tuple[str, str], ...]
    io_writes: Tuple[Tuple[str, str], ...]
    compute: Tuple[Tuple[str, str, str, float, float], ...]
    feedback: Tuple[Tuple[str, str, float], ...] = ()
    fsms: Tuple[FsmSpec, ...] = ()
    steps: int = 16
    episodes: int = 1

    @property
    def auto_allocate(self) -> bool:
        """Whether the flow should run the automatic allocation."""
        return not self.cpus

    def to_dict(self) -> Dict[str, object]:
        """A plain-JSON rendering (used by the manifest)."""
        return asdict(self)


@dataclass
class Scenario:
    """A generated scenario: parameters plus the materialized artifacts."""

    params: ScenarioParams
    model: Model
    behaviors: Dict[str, Callable]

    @property
    def name(self) -> str:
        return self.params.name

    @property
    def family(self) -> str:
        return self.params.family


def _rng(seed: int, index: int, purpose: str) -> random.Random:
    """A dedicated RNG stream per (seed, scenario, purpose)."""
    return random.Random(f"repro.zoo/{GENERATOR_VERSION}/{seed}/{index}/{purpose}")


def scenario_families(count: int, families: Sequence[str] = FAMILIES) -> List[str]:
    """The family of each scenario index: a fixed round-robin schedule."""
    for family in families:
        if family not in FAMILIES:
            raise ZooError(
                f"unknown scenario family {family!r}; pick from {FAMILIES}"
            )
    if not families:
        raise ZooError("at least one scenario family is required")
    return [families[i % len(families)] for i in range(count)]


# ---------------------------------------------------------------------------
# Parameter drawing (one function per family)
# ---------------------------------------------------------------------------


def draw_params(seed: int, index: int, family: str) -> ScenarioParams:
    """Draw one scenario's parameters — pure function of the arguments."""
    if family not in FAMILIES:
        raise ZooError(f"unknown scenario family {family!r}; pick from {FAMILIES}")
    rng = _rng(seed, index, family)
    drawer = {
        "pipeline": _draw_pipeline,
        "fanout": _draw_fanout,
        "layered": _draw_layered,
        "cyclic": _draw_cyclic,
        "fsm": _draw_fsm,
        "hybrid": _draw_hybrid,
    }[family]
    name = f"zoo_{family}_{seed}_{index:04d}"
    return drawer(rng, name, seed, index)


def _coeff(rng: random.Random) -> float:
    """An exactly-representable affine coefficient (keeps sims bit-stable)."""
    return rng.choice([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0])


def _offset(rng: random.Random) -> float:
    return float(rng.randint(-8, 8))


def _compute_row(
    rng: random.Random, thread: str, op_index: int
) -> Tuple[str, str, str, float, float]:
    kind = rng.choice(["sfun", "class", "gain"])
    return (
        thread,
        f"f{op_index}_{thread.lower()}",
        kind,
        _coeff(rng),
        _offset(rng),
    )


def _round_robin_cpus(
    rng: random.Random, threads: Sequence[str]
) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """An explicit deployment over 1–3 CPUs, or none (auto-allocate)."""
    n_cpus = rng.choice([0, 1, 2, 3])
    if n_cpus == 0 or n_cpus > len(threads):
        return ()
    buckets: List[List[str]] = [[] for _ in range(n_cpus)]
    for position, thread in enumerate(threads):
        buckets[position % n_cpus].append(thread)
    return tuple(
        (f"CPU{i + 1}", tuple(bucket)) for i, bucket in enumerate(buckets)
    )


def _draw_pipeline(
    rng: random.Random, name: str, seed: int, index: int
) -> ScenarioParams:
    length = rng.randint(3, 7)
    threads = tuple(f"T{i + 1}" for i in range(length))
    edges = []
    compute = []
    for position, thread in enumerate(threads):
        compute.append(_compute_row(rng, thread, position))
        if position + 1 < length:
            explicit = rng.random() < 0.5
            edges.append(
                (thread, threads[position + 1], f"d{position + 1}", 1, explicit)
            )
    return ScenarioParams(
        name=name,
        family="pipeline",
        seed=seed,
        index=index,
        threads=threads,
        cpus=_round_robin_cpus(rng, threads),
        edges=tuple(edges),
        io_reads=((threads[0], "src"),),
        io_writes=((threads[-1], "sink"),),
        compute=tuple(compute),
        steps=rng.randint(8, 24),
        episodes=rng.randint(1, 3),
    )


def _draw_fanout(
    rng: random.Random, name: str, seed: int, index: int
) -> ScenarioParams:
    workers = rng.randint(2, 4)
    threads = ("Src",) + tuple(f"W{i + 1}" for i in range(workers)) + ("Sink",)
    edges = []
    compute = [_compute_row(rng, "Src", 0)]
    for worker_index in range(workers):
        worker = f"W{worker_index + 1}"
        edges.append(("Src", worker, f"job{worker_index + 1}", 1, rng.random() < 0.5))
        edges.append((worker, "Sink", f"res{worker_index + 1}", 1, True))
        compute.append(_compute_row(rng, worker, worker_index + 1))
    # Explicit deployment is the interesting case for scatter/gather:
    # source+sink on one CPU, workers spread over one or two more.
    n_cpus = rng.choice([2, 3])
    buckets: List[List[str]] = [["Src", "Sink"]] + [[] for _ in range(n_cpus - 1)]
    for worker_index in range(workers):
        buckets[1 + worker_index % (n_cpus - 1)].append(f"W{worker_index + 1}")
    cpus = tuple(
        (f"CPU{i + 1}", tuple(bucket))
        for i, bucket in enumerate(buckets)
        if bucket
    )
    return ScenarioParams(
        name=name,
        family="fanout",
        seed=seed,
        index=index,
        threads=threads,
        cpus=cpus,
        edges=tuple(edges),
        io_reads=(("Src", "src"),),
        io_writes=(("Sink", "sink"),),
        compute=tuple(compute),
        steps=rng.randint(8, 20),
        episodes=rng.randint(1, 2),
    )


def _draw_layered(
    rng: random.Random, name: str, seed: int, index: int
) -> ScenarioParams:
    layers = rng.randint(2, 4)
    widths = [rng.randint(2, 3) for _ in range(layers)]
    grid = [
        [f"L{layer + 1}N{node + 1}" for node in range(widths[layer])]
        for layer in range(layers)
    ]
    threads = tuple(thread for row in grid for thread in row)
    edges = []
    channel = 0
    for layer in range(layers - 1):
        for producer in grid[layer]:
            targets = rng.sample(
                grid[layer + 1], rng.randint(1, len(grid[layer + 1]))
            )
            for consumer in targets:
                channel += 1
                weight = rng.randint(1, 10)
                edges.append((producer, consumer, f"c{channel}", weight, False))
    compute = [
        _compute_row(rng, thread, position)
        for position, thread in enumerate(threads)
    ]
    return ScenarioParams(
        name=name,
        family="layered",
        seed=seed,
        index=index,
        threads=threads,
        cpus=(),  # weighted DAG -> exercise the automatic allocation
        edges=tuple(edges),
        io_reads=(),
        io_writes=(),
        compute=tuple(compute),
        steps=rng.randint(6, 16),
        episodes=1,
    )


def _draw_cyclic(
    rng: random.Random, name: str, seed: int, index: int
) -> ScenarioParams:
    threads = ("Prod", "Ctl")
    limit = float(rng.randint(2, 12))
    return ScenarioParams(
        name=name,
        family="cyclic",
        seed=seed,
        index=index,
        threads=threads,
        cpus=(("CPU1", threads),),
        edges=(("Prod", "Ctl", "ref", 1, True),),
        io_reads=(("Prod", "cmd"),),
        io_writes=(("Ctl", "act"),),
        compute=((
            "Ctl",
            "law",
            rng.choice(["sfun", "class"]),
            _coeff(rng),
            _offset(rng),
        ),),
        feedback=(("Ctl", "u", limit),),
        steps=rng.randint(12, 32),
        episodes=rng.randint(1, 3),
    )


def _draw_fsm_spec(
    rng: random.Random, name: str, *, composite: bool
) -> FsmSpec:
    n_states = rng.randint(3, 6)
    states = tuple(f"s{i}" for i in range(n_states))
    events = tuple(f"ev{i}" for i in range(rng.randint(2, 3)))
    transitions: List[Tuple[str, str, str, str, str]] = []
    for i, state in enumerate(states):
        target = states[(i + 1) % n_states]
        event = events[i % len(events)]
        guard = "n < 100" if rng.random() < 0.5 else ""
        transitions.append((state, target, event, guard, "n = n + 1"))
    # A reset edge from a random non-initial state back to the start.
    source = states[rng.randint(1, n_states - 1)]
    transitions.append((source, states[0], "reset", "", "n = 0"))
    composite_spec = None
    if composite and n_states >= 4:
        # The second state becomes composite with two phases inside.
        composite_spec = (states[1], (f"{states[1]}_p1", f"{states[1]}_p2"))
    alphabet = list(events) + ["reset"]
    trace = tuple(rng.choice(alphabet) for _ in range(rng.randint(10, 40)))
    return FsmSpec(
        name=name,
        states=states,
        initial=states[0],
        events=events,
        transitions=tuple(transitions),
        variables=(("n", 0.0),),
        composite=composite_spec,
        trace=trace,
    )


def _draw_fsm(
    rng: random.Random, name: str, seed: int, index: int
) -> ScenarioParams:
    threads = ("Tin", "Tout")
    return ScenarioParams(
        name=name,
        family="fsm",
        seed=seed,
        index=index,
        threads=threads,
        cpus=(("CPU1", threads),),
        edges=(("Tin", "Tout", "d1", 1, rng.random() < 0.5),),
        io_reads=(("Tin", "src"),),
        io_writes=(("Tout", "sink"),),
        compute=(_compute_row(rng, "Tin", 0), _compute_row(rng, "Tout", 1)),
        fsms=(_draw_fsm_spec(rng, f"{name}_ctl", composite=False),),
        steps=rng.randint(8, 16),
        episodes=1,
    )


def _draw_hybrid(
    rng: random.Random, name: str, seed: int, index: int
) -> ScenarioParams:
    base = _draw_pipeline(rng, name, seed, index)
    machines = [_draw_fsm_spec(rng, f"{name}_mode", composite=True)]
    if rng.random() < 0.5:
        machines.append(_draw_fsm_spec(rng, f"{name}_err", composite=False))
    return ScenarioParams(
        name=name,
        family="hybrid",
        seed=seed,
        index=index,
        threads=base.threads,
        cpus=base.cpus,
        edges=base.edges,
        io_reads=base.io_reads,
        io_writes=base.io_writes,
        compute=base.compute,
        fsms=tuple(machines),
        steps=base.steps,
        episodes=base.episodes,
    )


# ---------------------------------------------------------------------------
# Model construction from parameters
# ---------------------------------------------------------------------------


def build_scenario(params: ScenarioParams) -> Scenario:
    """Materialize a UML model (+ behaviours) from frozen parameters.

    Construction is deterministic: element creation order follows the
    parameter tuples, so two builds of the same params produce models
    with identical structural fingerprints.
    """
    b = ModelBuilder(params.name)
    behaviors: Dict[str, Callable] = {}

    compute_by_thread: Dict[str, List[Tuple[str, str, float, float]]] = {}
    for thread, op, kind, a, off in params.compute:
        compute_by_thread.setdefault(thread, []).append((op, kind, a, off))

    # Declare passive classes for "class"-kind compute ops first, so the
    # class declarations precede the instances that use them.
    for thread, op, kind, a, off in params.compute:
        if kind == "class":
            cls_name = f"C_{op}"
            b.passive_class(cls_name).op(
                op, inputs=["x:double"], returns="double"
            ).body(f"return {a} * x + {off};", "c")

    for thread in params.threads:
        b.thread(thread)
    for thread, op, kind, a, off in params.compute:
        if kind == "class":
            b.instance(f"I_{op}", f"C_{op}")
    io_threads = {t for t, _ in params.io_reads} | {
        t for t, _ in params.io_writes
    }
    if io_threads:
        b.io_device("Env")

    for cpu, cpu_threads in params.cpus:
        b.processor(cpu, threads=list(cpu_threads))
    if len(params.cpus) > 1:
        for (left, _), (right, _) in zip(params.cpus, params.cpus[1:]):
            b.bus(left, right, name=f"bus_{left}_{right}")

    in_edges: Dict[str, List[Tuple[str, str, str, int, bool]]] = {}
    out_edges: Dict[str, List[Tuple[str, str, str, int, bool]]] = {}
    for edge in params.edges:
        out_edges.setdefault(edge[0], []).append(edge)
        in_edges.setdefault(edge[1], []).append(edge)
    reads_by_thread: Dict[str, List[str]] = {}
    for thread, channel in params.io_reads:
        reads_by_thread.setdefault(thread, []).append(channel)
    writes_by_thread: Dict[str, List[str]] = {}
    for thread, channel in params.io_writes:
        writes_by_thread.setdefault(thread, []).append(channel)
    feedback_by_thread = {row[0]: row for row in params.feedback}

    sd = b.interaction("main")
    fold_counter = [0]

    def fold(thread: str, values: List[str]) -> Optional[str]:
        """Combine a thread's input values with binary Platform blocks."""
        if not values:
            return None
        combined = values[0]
        for nxt in values[1:]:
            fold_counter[0] += 1
            out = f"m{fold_counter[0]}_{thread.lower()}"
            op = ("add", "mult", "sub")[fold_counter[0] % 3]
            sd.call(thread, "Platform", op, args=[combined, nxt], result=out)
            combined = out
        return combined

    # Threads are visited in declaration order, which every family
    # arranges to be a topological order of the forward edges; feedback
    # variables are the deliberate exception (read before produced).
    for thread in params.threads:
        values: List[str] = []
        for channel in reads_by_thread.get(thread, ()):
            var = f"io_{channel}"
            sd.call(thread, "Env", f"get{channel.capitalize()}", result=var)
            values.append(var)
        for producer, _, channel, _, explicit in in_edges.get(thread, ()):
            if explicit:
                var = f"r_{channel}"
                sd.call(thread, producer, f"get{channel.capitalize()}", result=var)
            else:
                # Implicit consumption: the receive port publishes the
                # value under the channel's own name (the mjpeg idiom).
                var = channel
            values.append(var)

        feedback = feedback_by_thread.get(thread)
        if feedback is not None:
            _, fb_var, limit = feedback
            source = fold(thread, values)
            if source is None:
                source = _ensure_value(sd, thread, behaviors, "fb")
            # The crane idiom: the error term reads the feedback variable
            # that the saturation at the end of this thread produces —
            # a cyclic data path the barrier pass must break.
            sd.call(
                thread, "Platform", "sub", args=[source, fb_var], result=f"e_{thread.lower()}"
            )
            values = [f"e_{thread.lower()}"]

        current = fold(thread, values)
        for op, kind, a, off in compute_by_thread.get(thread, ()):
            out = f"v_{op}"
            if kind == "gain":
                source = current
                if source is None:
                    sd.call(
                        thread, "Platform", "constant", args=[], result=f"k_{op}"
                    )
                    source = f"k_{op}"
                sd.call(thread, "Platform", "gain", args=[source, a], result=f"g_{op}")
                sd.call(
                    thread, "Platform", "add", args=[f"g_{op}", float(off)],
                    result=out,
                )
            elif kind == "class":
                # Typed receivers get their arity validated, so a source
                # thread feeds the operation a literal instead of nothing.
                args = [current] if current is not None else [1.0]
                sd.call(thread, f"I_{op}", op, args=args, result=out)
                behaviors[op] = _affine(a, off)
            else:
                args = [current] if current is not None else []
                sd.call(thread, thread, op, args=args, result=out)
                if args:
                    behaviors[op] = _affine(a, off)
                else:
                    behaviors[op] = _constant(off)
            current = out

        if feedback is not None:
            _, fb_var, limit = feedback
            sd.call(
                thread,
                "Platform",
                "saturation",
                args=[current, -limit, limit],
                result=fb_var,
            )
            current = fb_var

        for _, consumer, channel, weight, explicit in out_edges.get(thread, ()):
            value = current if current is not None else _ensure_value(
                sd, thread, behaviors, channel
            )
            if not explicit and value != channel:
                # Implicit (mjpeg-style) consumers read the channel
                # variable directly, so publish the value under the
                # channel's own name before the send carries it.
                _alias(sd, thread, value, channel)
                value = channel
            if weight > 1:
                loop = sd.loop(iterations=weight)
                loop.call(thread, consumer, f"set{channel.capitalize()}", args=[value])
            else:
                sd.call(thread, consumer, f"set{channel.capitalize()}", args=[value])
        for channel in writes_by_thread.get(thread, ()):
            value = current if current is not None else _ensure_value(
                sd, thread, behaviors, channel
            )
            sd.call(thread, "Env", f"set{channel.capitalize()}", args=[value])

    for spec in params.fsms:
        b.model.add_state_machine(build_state_machine(spec))
    return Scenario(params=params, model=b.build(), behaviors=behaviors)


def _affine(a: float, off: float) -> Callable[[float], float]:
    fn = lambda x, _a=a, _b=off: _a * x + _b  # noqa: E731
    # Declarative mirror of the lambda for the static-schedule backend:
    # repro.codegen lowers the S-Function to `a * x + b` (one multiply,
    # one add — the lambda's exact IEEE operation order).
    fn.codegen_spec = ("affine", float(a), float(off))  # type: ignore[attr-defined]
    return fn


def _constant(off: float) -> Callable[[], float]:
    fn = lambda _b=off: float(_b)  # noqa: E731
    fn.codegen_spec = ("constant", float(off))  # type: ignore[attr-defined]
    return fn


def _ensure_value(
    sd, thread: str, behaviors: Dict[str, Callable], channel: str
) -> str:
    """A source value for threads with no inputs (synthetic's comp idiom)."""
    op = f"seed_{channel.lower()}_{thread.lower()}"
    var = f"v_{op}"
    sd.call(thread, thread, op, result=var)
    behaviors[op] = _constant(1.0)
    return var


def _alias(sd, thread: str, source: str, target: str) -> None:
    """Bind ``target`` to ``source`` through an identity Platform gain.

    Implicit (mjpeg-style) consumers read the channel variable ``v_<ch>``
    directly, so the producer must publish its value under that name.
    """
    sd.call(thread, "Platform", "gain", args=[source, 1.0], result=target)


def build_state_machine(spec: FsmSpec) -> StateMachine:
    """Materialize a UML state machine from an :class:`FsmSpec`."""
    machine = StateMachine(spec.name)
    region = machine.main_region()
    init = region.add_vertex(Pseudostate())
    vertices: Dict[str, State] = {}
    for name in spec.states:
        vertices[name] = region.add_vertex(State(name))
    region.add_transition(Transition(init, vertices[spec.initial]))
    if spec.composite is not None:
        parent, substates = spec.composite
        inner = vertices[parent].add_region(Region(f"{parent}_phases"))
        inner_init = inner.add_vertex(Pseudostate())
        inner_states = [inner.add_vertex(State(sub)) for sub in substates]
        inner.add_transition(Transition(inner_init, inner_states[0]))
        for left, right in zip(inner_states, inner_states[1:]):
            inner.add_transition(Transition(left, right, trigger="phase"))
    for source, target, event, guard, action in spec.transitions:
        region.add_transition(
            Transition(
                vertices[source],
                vertices[target],
                trigger=event,
                guard=guard or None,
                effect=action or None,
            )
        )
    return machine


def build_fsm(spec: FsmSpec):
    """Lower an :class:`FsmSpec` to an executable :class:`repro.fsm.Fsm`.

    UML state machines carry no variable declarations, so the lowering
    alone would leave guards like ``n < 100`` over undefined names;
    the spec's ``variables`` are declared on the flat machine here.
    """
    from ..fsm import fsm_from_state_machine

    fsm = fsm_from_state_machine(build_state_machine(spec))
    for name, initial in spec.variables:
        fsm.add_variable(name, initial)
    return fsm


# ---------------------------------------------------------------------------
# Corpus iteration
# ---------------------------------------------------------------------------


def generate_scenario(seed: int, index: int, family: str) -> Scenario:
    """Draw parameters and build the model for one scenario."""
    return build_scenario(draw_params(seed, index, family))


def generate_corpus(
    seed: int,
    count: int,
    families: Sequence[str] = FAMILIES,
) -> Iterator[Scenario]:
    """Yield ``count`` scenarios, cycling through ``families``.

    Scenarios are generated lazily; iterate twice with the same arguments
    and you get structurally identical models.
    """
    if count < 1:
        raise ZooError("corpus count must be at least 1")
    for index, family in enumerate(scenario_families(count, families)):
        yield generate_scenario(seed, index, family)


def stimuli_for(params: ScenarioParams, inport_names: Sequence[str]) -> List[Dict[str, List[float]]]:
    """Seeded stimulus batches for a synthesized scenario.

    One mapping per episode: Inport block name → sample list.  Values are
    halves in a small range (exactly representable), lengths deliberately
    ragged around ``params.steps`` to exercise padding.
    """
    rng = _rng(params.seed, params.index, "stimuli")
    episodes = []
    for _ in range(max(1, params.episodes)):
        stimulus: Dict[str, List[float]] = {}
        for name in inport_names:
            length = rng.randint(max(0, params.steps - 2), params.steps + 2)
            stimulus[name] = [rng.randint(-16, 16) / 2.0 for _ in range(length)]
        episodes.append(stimulus)
    return episodes


# ---------------------------------------------------------------------------
# Pathological models (negative-testing supply for uml.validate)
# ---------------------------------------------------------------------------

#: Kinds understood by :func:`generate_pathological`.
PATHOLOGICAL_KINDS = (
    "channel_cycle",
    "dangling_get",
    "unknown_operation",
    "bad_arity",
    "read_before_produce",
    "concurrent_write",
    "fsm_unreachable",
    "fsm_bad_guard",
    "sdf_inconsistent",
)

#: Pathological kind -> the analyzer diagnostic code it must trigger.
#: This is the negative-testing contract between the zoo and
#: ``repro.analysis``: the harness (and ``tests/analysis``) assert each
#: kind's model yields its documented code (see ``docs/analysis.md``).
PATHOLOGICAL_EXPECTED_CODES: Dict[str, str] = {
    "channel_cycle": "RA202",
    "dangling_get": "RA201",
    "unknown_operation": "RA101",
    "bad_arity": "RA102",
    "read_before_produce": "RA203",
    "concurrent_write": "RA204",
    "fsm_unreachable": "RA301",
    "fsm_bad_guard": "RA306",
    "sdf_inconsistent": "RA401",
}


def generate_pathological(seed: int, kind: str) -> Model:
    """A deliberately malformed model of the requested ``kind``.

    These feed the ``uml.validate`` tests: each kind must produce a
    diagnostic that *names the offending element* (thread, channel,
    operation or variable), never a generic failure.
    """
    rng = random.Random(f"repro.zoo/pathological/{seed}/{kind}")
    b = ModelBuilder(f"zoo_bad_{kind}_{seed}")
    if kind == "channel_cycle":
        b.thread("A")
        b.thread("B")
        sd = b.interaction("main")
        sd.call("A", "A", "compA", result="x")
        sd.call("A", "B", "setPing", args=["x"])
        sd.call("B", "B", "compB", result="y")
        sd.call("B", "A", "setPong", args=["y"])
    elif kind == "dangling_get":
        b.thread("A")
        b.thread("B")
        sd = b.interaction("main")
        sd.call("A", "B", "getLevel", result="v")
        sd.call("A", "A", "use", args=["v"], result="w")
    elif kind == "unknown_operation":
        b.passive_class("Calc").op("mul2", inputs=["x:double"], returns="double")
        b.thread("T1")
        b.instance("C1", "Calc")
        sd = b.interaction("main")
        sd.call("T1", "C1", "mul3", args=[float(rng.randint(1, 9))], result="r")
    elif kind == "bad_arity":
        b.passive_class("Calc").op(
            "combine", inputs=["x:double", "y:double"], returns="double"
        )
        b.thread("T1")
        b.instance("C1", "Calc")
        sd = b.interaction("main")
        sd.call("T1", "T1", "mk", result="a")
        sd.call("T1", "C1", "combine", args=["a"], result="r")
    elif kind == "read_before_produce":
        b.thread("T1")
        sd = b.interaction("main")
        sd.call("T1", "T1", "use", args=["ghost"], result="out")
    elif kind == "concurrent_write":
        # Two producers write the same channel toward *different*
        # receivers, so no lifeline event order connects the writes:
        # the FIFO interleaving is scheduling-dependent (RA204).
        for thread in ("A", "B", "C", "D"):
            b.thread(thread)
        sd = b.interaction("main")
        sd.call("A", "A", "mkA", result="x")
        sd.call("A", "B", "setData", args=["x"])
        sd.call("C", "C", "mkC", result="y")
        sd.call("C", "D", "setData", args=["y"])
    elif kind in ("fsm_unreachable", "fsm_bad_guard"):
        bad = kind == "fsm_bad_guard"  # a guard walking Python attributes
        b.thread("T1")
        sd = b.interaction("main")
        sd.call("T1", "T1", "tick", result="x")
        b.model.add_state_machine(
            build_state_machine(
                FsmSpec(
                    name=f"zoo_bad_{kind}_{seed}_ctl",
                    states=("s0", "s1") if bad else ("s0", "s1", "orphan"),
                    initial="s0",
                    events=("go",),
                    transitions=(
                        ("s0", "s1", "go", "().__class__ != ()" if bad else "", ""),
                        ("s1", "s0", "go", "", ""),
                    ),
                )
            )
        )
    elif kind == "sdf_inconsistent":
        # Two channels between the same pair with conflicting rates:
        # c1 carries 2 tokens per A-firing but B consumes 1 per firing,
        # while c2 is 1:1 — the balance equations demand r_B == 2*r_A
        # and r_B == r_A at once, so no repetition vector exists (RA401).
        b.thread("A")
        b.thread("B")
        sd = b.interaction("main")
        sd.call("A", "A", "mkP", result="p")
        loop = sd.loop(iterations=2)
        loop.call("A", "B", "setC1", args=["p"])
        sd.call("A", "B", "setC2", args=["p"])
        sd.call("B", "A", "getC1", result="x1")
        sd.call("B", "A", "getC2", result="x2")
        sd.call("B", "B", "useB", args=["x1", "x2"], result="z")
    else:
        raise ZooError(
            f"unknown pathological kind {kind!r}; pick from {PATHOLOGICAL_KINDS}"
        )
    return b.build()
