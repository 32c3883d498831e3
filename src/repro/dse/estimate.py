"""Cost estimation of candidate allocations (paper future work).

"As future work, we plan to integrate an estimation step in the proposed
development flow to automatically determine the best partitioning and
mapping solution."

This module holds the project's one makespan model.  It estimates the
cost of a thread→CPU allocation *directly on the task graph*, without
synthesizing the CAAM — fast enough to sit inside a
design-space-exploration loop (:mod:`repro.dse.explore`).  The §4.2.3
ablation's :func:`repro.mpsoc.schedule.schedule_caam` and
:func:`repro.mpsoc.schedule.steady_state_interval` derive a task graph
from a synthesized CAAM and call the same kernel.  The model:

- durations: a node costs ``node_weight × cycles_per_unit`` cycles on its
  CPU (the CAAM adapter weighs a thread by its functional blocks × its
  CPU's ``cycles_per_block`` and passes ``cycles_per_unit=1``);
- channel delays: an edge carries the summed bits of every channel
  between one producer and one consumer and pays the platform price of
  that volume once — intra-CPU (SWFIFO, per word) when co-located,
  inter-CPU (GFIFO, bus latency + per word) otherwise;
- cycle rule: strongly connected components are condensed into
  super-nodes (the rule :mod:`repro.core.clustering` uses) whose members
  run back-to-back, in name order, on the CPU of the name-first member;
  an edge between two super-nodes delays by its costliest member edge;
- order: Kahn order over the condensed graph, simultaneously ready nodes
  taken by ``(-SAPriority, name)`` (:attr:`TaskGraph.priorities`; a
  super-node has its highest member priority; sequence-diagram graphs
  carry none, so name order);
- makespan: list scheduling in that order — a node starts once its CPU
  is free and every predecessor has finished plus the edge delay; the
  makespan is the latest finish;
- interval: the steady-state initiation interval is the busiest CPU's
  per-iteration work, its durations plus the delays of the edges it
  produces.

:func:`estimate_allocations` replays the scalar kernel over many plans at
once, bit-identically.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.taskgraph import TaskGraph
from ..mpsoc.platform import Bus, Platform, Processor
from ..obs import recorder as _obs
from ..uml.deployment import DeploymentPlan

try:  # NumPy is optional: the scalar estimator never needs it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None


class EstimationError(Exception):
    """Raised on inconsistent estimation inputs."""


def default_platform(cpu_names: List[str]) -> Platform:
    """A platform with one processor per named CPU and default costs."""
    return Platform(
        processors=[Processor(name) for name in cpu_names], bus=Bus()
    )


@dataclass(frozen=True)
class CostEstimate:
    """Estimated cost of one allocation.

    Two figures of merit are computed:

    - ``makespan_cycles`` — latency of one iteration (list schedule);
    - ``interval_cycles`` — steady-state initiation interval of the
      pipelined system (the busiest CPU's per-iteration work), the right
      objective for streaming workloads.
    """

    makespan_cycles: float
    computation_cycles: float
    inter_cpu_cycles: float
    intra_cpu_cycles: float
    cpu_count: int
    interval_cycles: float = 0.0

    @property
    def communication_cycles(self) -> float:
        return self.inter_cpu_cycles + self.intra_cpu_cycles

    def metric(self, objective: str = "latency") -> float:
        """The figure of merit for ``objective`` (latency | throughput)."""
        if objective == "latency":
            return self.makespan_cycles
        if objective == "throughput":
            return self.interval_cycles
        raise EstimationError(f"unknown objective {objective!r}")

    def dominates(
        self, other: "CostEstimate", objective: str = "latency"
    ) -> bool:
        """Pareto dominance on (objective metric, cpu_count)."""
        mine, theirs = self.metric(objective), other.metric(objective)
        no_worse = mine <= theirs and self.cpu_count <= other.cpu_count
        better = mine < theirs or self.cpu_count < other.cpu_count
        return no_worse and better

    def __str__(self) -> str:
        return (
            f"makespan {self.makespan_cycles:g} cyc / interval "
            f"{self.interval_cycles:g} cyc on {self.cpu_count} "
            f"CPU(s) (comp {self.computation_cycles:g}, inter "
            f"{self.inter_cpu_cycles:g}, intra {self.intra_cpu_cycles:g})"
        )


@dataclass
class _GraphTables:
    """Plan-independent precomputation shared by every candidate.

    Condensation and topological ordering are the expensive parts of one
    estimate (``O(V·E·log E)``) yet depend only on the graph — not the
    deployment plan a DSE loop varies — so they are computed once per
    graph and reused across the thousands of candidate evaluations an
    exploration performs.  ``anchors`` fixes each super-node's placement
    lookup to its lexicographically-first member, matching the previous
    per-candidate ``sorted(group)[0]``.
    """

    fingerprint: Tuple[tuple, tuple, tuple]
    member_of: Dict[str, str]
    members: Dict[str, List[str]]
    anchors: Dict[str, str]
    order: List[str]
    #: ``cycles_per_unit`` -> (duration, computation, super_duration).
    by_unit: Dict[float, Tuple[Dict[str, float], float, Dict[str, float]]] = (
        field(default_factory=dict)
    )


#: id(graph) -> tables; entries are evicted when the graph is collected
#: and re-validated against the content fingerprint on every lookup, so
#: id reuse or in-place mutation can never serve stale tables.
_TABLE_CACHE: Dict[int, _GraphTables] = {}


def _graph_fingerprint(graph: TaskGraph) -> Tuple[tuple, tuple, tuple]:
    return (
        tuple(graph.node_weights.items()),
        tuple(graph.edges.items()),
        tuple(graph.priorities.items()),
    )


def _tables_for(graph: TaskGraph) -> _GraphTables:
    key = id(graph)
    fingerprint = _graph_fingerprint(graph)
    tables = _TABLE_CACHE.get(key)
    rec = _obs.get()
    if tables is not None and tables.fingerprint == fingerprint:
        if rec.enabled:
            rec.incr("dse.estimate.table_hits")
        return tables
    if graph.is_dag():
        dag, member_of = graph, {n: n for n in graph.node_weights}
    else:
        dag, member_of = graph.condensation()
    members: Dict[str, List[str]] = {}
    for node, label in member_of.items():
        members.setdefault(label, []).append(node)
    anchors = {
        label: sorted(group)[0] for label, group in members.items()
    }
    order = dag.topological_order()
    assert order is not None  # condensation is a DAG
    # Note: the tables must not reference ``graph`` itself (when the graph
    # is already a DAG, ``dag is graph``) — a strong reference from the
    # cache value would root the graph and defeat the finalize-based
    # eviction below.
    tables = _GraphTables(
        fingerprint=fingerprint,
        member_of=member_of,
        members=members,
        anchors=anchors,
        order=list(order),
    )
    if key not in _TABLE_CACHE:
        try:
            weakref.finalize(graph, _TABLE_CACHE.pop, key, None)
        except TypeError:
            pass  # graph type not weakref-able; entry lives for the process
    _TABLE_CACHE[key] = tables
    if rec.enabled:
        rec.incr("dse.estimate.table_misses")
    return tables


def _durations_for(
    tables: _GraphTables, graph: TaskGraph, cycles_per_unit: float
) -> Tuple[Dict[str, float], float, Dict[str, float]]:
    cached = tables.by_unit.get(cycles_per_unit)
    if cached is not None:
        return cached
    duration = {
        node: weight * cycles_per_unit
        for node, weight in graph.node_weights.items()
    }
    computation = sum(duration.values())
    super_duration = {
        label: sum(duration[m] for m in group)
        for label, group in tables.members.items()
    }
    cached = (duration, computation, super_duration)
    tables.by_unit[cycles_per_unit] = cached
    return cached


def estimate_allocation(
    graph: TaskGraph,
    plan: DeploymentPlan,
    platform: Optional[Platform] = None,
    *,
    cycles_per_unit: float = 50.0,
) -> CostEstimate:
    """Estimate the cost of running ``graph`` under ``plan``.

    Threads present in the graph but absent from the plan are rejected —
    an estimation over a partial mapping would silently mislead the
    explorer.
    """
    return _estimate(graph, plan, platform, cycles_per_unit)[0]


def _estimate(
    graph: TaskGraph,
    plan: DeploymentPlan,
    platform: Optional[Platform],
    cycles_per_unit: float,
) -> Tuple[CostEstimate, _GraphTables, Dict[str, float]]:
    """The estimate, the graph's tables and each super-node's start."""
    for node in graph.node_weights:
        if not plan.has_thread(node):
            raise EstimationError(f"thread {node!r} has no CPU in the plan")
    if platform is None:
        platform = default_platform(plan.cpus)

    tables = _tables_for(graph)
    duration, computation, super_duration = _durations_for(
        tables, graph, cycles_per_unit
    )

    inter = intra = 0.0
    delays: Dict[Tuple[str, str], float] = {}
    for (src, dst), bits in graph.edges.items():
        if plan.co_located(src, dst):
            cost = platform.channel_cost("SWFIFO", int(bits))
            intra += cost
        else:
            cost = platform.channel_cost("GFIFO", int(bits))
            inter += cost
        delays[(src, dst)] = cost

    start, finish = _schedule_tables(tables, super_duration, plan, delays)
    busy: Dict[str, float] = {}
    for node, cycles in duration.items():
        cpu = plan.cpu_of(node)
        busy[cpu] = busy.get(cpu, 0.0) + cycles
    for (src, _dst), cost in delays.items():
        cpu = plan.cpu_of(src)
        busy[cpu] = busy.get(cpu, 0.0) + cost
    estimate = CostEstimate(
        makespan_cycles=max(finish.values(), default=0.0),
        computation_cycles=computation,
        inter_cpu_cycles=inter,
        intra_cpu_cycles=intra,
        cpu_count=len(
            {plan.cpu_of(t) for t in graph.node_weights}
        ),
        interval_cycles=max(busy.values(), default=0.0),
    )
    return estimate, tables, start


def estimate_allocations(
    graph: TaskGraph,
    plans: List[DeploymentPlan],
    platform: Optional[Platform] = None,
    *,
    cycles_per_unit: float = 50.0,
) -> List[CostEstimate]:
    """Estimate many plans over one graph in a single vectorized pass.

    Bit-identical to ``[estimate_allocation(graph, p, ...) for p in plans]``
    — every float the scalar estimator produces is replayed with the same
    IEEE operations in the same order, only across a ``(plans,)`` axis: the
    per-edge channel costs are plan-independent, so the batched path
    precomputes them once and selects per plan with the co-location mask;
    accumulations, running maxima and the list-schedule sweep all follow
    the scalar loop's op order (``np.where(b > a, b, a)`` is Python's
    ``max(a, b)``).  Validation errors are raised for the same plan the
    serial loop would hit first.  Without NumPy (or below two plans) this
    transparently falls back to the serial loop.
    """
    plans = list(plans)
    if not plans:
        return []
    if _np is None or len(plans) == 1:
        return [
            estimate_allocation(
                graph, plan, platform, cycles_per_unit=cycles_per_unit
            )
            for plan in plans
        ]
    np = _np
    for plan in plans:
        for node in graph.node_weights:
            if not plan.has_thread(node):
                raise EstimationError(
                    f"thread {node!r} has no CPU in the plan"
                )
    if platform is None:
        # Only the bus/SWFIFO parameters feed channel_cost, and those are
        # identical for every per-plan default platform the scalar path
        # builds — one representative suffices.
        platform = default_platform(plans[0].cpus)

    tables = _tables_for(graph)
    duration, computation, super_duration = _durations_for(
        tables, graph, cycles_per_unit
    )

    nodes = list(graph.node_weights)
    node_index = {node: i for i, node in enumerate(nodes)}
    count = len(plans)
    rows = np.arange(count)

    # Dense per-plan CPU ids (first-appearance order over the node list —
    # the same order the scalar path first touches each CPU, so the busy
    # dict's value order maps onto ascending column index).
    assign = np.empty((count, max(len(nodes), 1)), dtype=np.intp)
    n_cpus = np.empty(count, dtype=np.intp)
    for p, plan in enumerate(plans):
        ids: Dict[str, int] = {}
        row = assign[p]
        for i, node in enumerate(nodes):
            cpu = plan.cpu_of(node)
            local = ids.get(cpu)
            if local is None:
                local = ids[cpu] = len(ids)
            row[i] = local
        n_cpus[p] = len(ids)

    edge_items = list(graph.edges.items())
    inter = np.zeros(count)
    intra = np.zeros(count)
    if edge_items:
        edge_src = np.array(
            [node_index[src] for (src, _dst) in graph.edges], dtype=np.intp
        )
        edge_dst = np.array(
            [node_index[dst] for (_src, dst) in graph.edges], dtype=np.intp
        )
        cost_intra = np.array(
            [
                platform.channel_cost("SWFIFO", int(bits))
                for bits in graph.edges.values()
            ],
            dtype=np.float64,
        )
        cost_inter = np.array(
            [
                platform.channel_cost("GFIFO", int(bits))
                for bits in graph.edges.values()
            ],
            dtype=np.float64,
        )
        co = assign[:, edge_src] == assign[:, edge_dst]
        for e in range(len(edge_items)):
            mask = co[:, e]
            intra[mask] += cost_intra[e]
            inter[~mask] += cost_inter[e]
        edge_cost = np.where(co, cost_intra, cost_inter)
    else:
        edge_cost = np.zeros((count, 0))

    # -- list schedule (vectorized _schedule_tables) -------------------------
    member_of = tables.member_of
    super_delay: Dict[Tuple[str, str], object] = {}
    for e, (src, dst) in enumerate(graph.edges):
        a, b = member_of[src], member_of[dst]
        if a != b:
            key = (a, b)
            cost = edge_cost[:, e]
            current = super_delay.get(key)
            if current is None:
                super_delay[key] = np.where(cost > 0.0, cost, 0.0)
            else:
                super_delay[key] = np.where(cost > current, cost, current)
    out_delays: Dict[str, List[Tuple[str, object]]] = {}
    for (a, b), cost in super_delay.items():
        out_delays.setdefault(a, []).append((b, cost))

    earliest = {label: np.zeros(count) for label in super_duration}
    width = int(n_cpus.max()) if nodes else 0
    cpu_free = np.zeros((count, width))
    makespan: Optional[object] = None
    for label in tables.order:
        cpu = assign[:, node_index[tables.anchors[label]]]
        free = cpu_free[rows, cpu]
        ready = earliest[label]
        start = np.where(free > ready, free, ready)
        end = start + super_duration[label]
        cpu_free[rows, cpu] = end
        makespan = (
            end.copy()
            if makespan is None
            else np.where(end > makespan, end, makespan)
        )
        for successor, cost in out_delays.get(label, ()):
            current = earliest[successor]
            candidate = end + cost
            earliest[successor] = np.where(
                candidate > current, candidate, current
            )
    if makespan is None:
        makespan = np.zeros(count)

    # -- per-CPU busy time (initiation interval) -----------------------------
    busy = np.zeros((count, width))
    for node, cycles in duration.items():
        busy[rows, assign[:, node_index[node]]] += cycles
    for e, (src, _dst) in enumerate(graph.edges):
        busy[rows, assign[:, node_index[src]]] += edge_cost[:, e]
    if nodes:
        # Sequential max in the scalar dict's value order (column 0 first),
        # masking columns a plan never uses.
        interval = busy[:, 0].copy()
        for column in range(1, width):
            values = busy[:, column]
            better = (n_cpus > column) & (values > interval)
            interval = np.where(better, values, interval)
    else:
        interval = np.zeros(count)

    return [
        CostEstimate(
            makespan_cycles=float(makespan[p]),
            computation_cycles=computation,
            inter_cpu_cycles=float(inter[p]),
            intra_cpu_cycles=float(intra[p]),
            cpu_count=int(n_cpus[p]),
            interval_cycles=float(interval[p]),
        )
        for p in range(count)
    ]


def _schedule_tables(
    tables: _GraphTables,
    super_duration: Dict[str, float],
    plan: DeploymentPlan,
    delays: Dict[Tuple[str, str], float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Start and finish of each super-node, list-scheduled on the plan.

    Only the plan-dependent pieces run here: super-node placement (the
    members' CPU — SCC members are co-located by any sane plan; if not,
    the anchor member's CPU runs them all and the internal edges delay
    nothing), inter-super-node delays, and the schedule sweep itself.
    This is the one scalar list-scheduling loop; ``estimate_allocations``
    is its vectorized twin.
    """
    member_of = tables.member_of
    cpu_of = {
        label: plan.cpu_of(anchor) for label, anchor in tables.anchors.items()
    }
    super_delay: Dict[Tuple[str, str], float] = {}
    for (src, dst), cost in delays.items():
        a, b = member_of[src], member_of[dst]
        if a != b:
            key = (a, b)
            super_delay[key] = max(super_delay.get(key, 0.0), cost)
    # Successor adjacency once, not one full edge scan per scheduled node —
    # this function is the DSE inner loop (called once per candidate).
    out_delays: Dict[str, List[Tuple[str, float]]] = {}
    for (a, b), cost in super_delay.items():
        out_delays.setdefault(a, []).append((b, cost))

    earliest = {label: 0.0 for label in super_duration}
    cpu_free: Dict[str, float] = {}
    start: Dict[str, float] = {}
    finish: Dict[str, float] = {}
    for label in tables.order:
        cpu = cpu_of[label]
        begin = start[label] = max(earliest[label], cpu_free.get(cpu, 0.0))
        end = begin + super_duration[label]
        cpu_free[cpu] = end
        finish[label] = end
        for successor, cost in out_delays.get(label, ()):
            earliest[successor] = max(earliest[successor], end + cost)
    return start, finish

