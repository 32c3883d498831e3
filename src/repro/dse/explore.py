"""Design-space exploration over thread allocations (paper future work).

"This would avoid the need for the designer to specify the deployment ...
while supporting design space exploration."

Given a task graph (extracted from the sequence diagrams), the explorer
searches thread→CPU allocations using the fast estimator of
:mod:`repro.dse.estimate`:

- :func:`exhaustive_explore` enumerates every set partition (Bell-number
  growth; practical to ~10 threads) — ground truth for small systems;
- :func:`greedy_explore` seeds with linear clustering and hill-climbs by
  single-thread moves and cluster merges (deterministic);
- :func:`pareto_front` filters candidates to the (objective, CPU count)
  Pareto-optimal set — the designer picks the preferred trade-off.

Two objectives are supported: ``latency`` (one-iteration makespan) and
``throughput`` (steady-state initiation interval — the right goal for
streaming pipelines, where latency-optimal solutions collapse onto one
CPU).

Every explorer returns :class:`Candidate` objects carrying the plan and its
estimate, best-first.

Determinism contract
--------------------
Exploration output is a pure function of its inputs:

- candidate ranking never involves wall-clock time — the ``time`` module
  is used only to feed the observability layer (``dse.evaluate`` timings),
  never as a sort key or tie-breaker;
- ties on ``(metric, cpu_count)`` are broken by the *content* of the plan
  (:func:`plan_signature`), so the published ordering is identical across
  runs and processes;
- every candidate is evaluated in-process; from :data:`DSE_BATCH_MIN`
  pending candidates on, the vectorized
  :func:`repro.dse.estimate.estimate_allocations` replaces the
  per-candidate loop, bit-identically.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.allocation import plan_from_clusters
from ..obs import recorder as _obs
from ..core.clustering import linear_clustering
from ..core.taskgraph import TaskGraph
from ..mpsoc.platform import Platform
from ..uml.deployment import DeploymentPlan
from .estimate import (
    CostEstimate,
    default_platform,
    estimate_allocation,
    estimate_allocations,
)


class ExplorationError(Exception):
    """Raised on infeasible exploration requests."""


#: Set to ``0``/``false`` to force per-candidate serial estimation even when
#: NumPy is available — the kill switch for the vectorized batch estimator.
DSE_BATCH_ENV = "REPRO_DSE_BATCH"

#: Minimum number of pending candidates before batching pays for itself.
DSE_BATCH_MIN = 8


def _batch_estimation_enabled() -> bool:
    value = os.environ.get(DSE_BATCH_ENV, "1").strip().lower()
    return value not in ("0", "false", "no", "off")


@dataclass(frozen=True)
class Candidate:
    """One explored allocation with its estimated cost."""

    plan: DeploymentPlan
    estimate: CostEstimate
    objective: str = "latency"

    @property
    def makespan(self) -> float:
        """Latency of one iteration (cycles)."""
        return self.estimate.makespan_cycles

    @property
    def interval(self) -> float:
        """Steady-state initiation interval (cycles/sample)."""
        return self.estimate.interval_cycles

    @property
    def metric(self) -> float:
        """The figure of merit under this candidate's objective."""
        return self.estimate.metric(self.objective)

    @property
    def cpu_count(self) -> int:
        """Number of CPUs the plan uses."""
        return self.estimate.cpu_count

    def __str__(self) -> str:
        groups = ", ".join(
            f"{cpu}={{{','.join(sorted(self.plan.threads_on(cpu)))}}}"
            for cpu in self.plan.cpus
        )
        return f"{self.estimate} :: {groups}"


def plan_signature(plan: DeploymentPlan) -> Tuple[Tuple[str, ...], ...]:
    """A canonical, content-only key for a plan's thread grouping.

    Clusters as sorted tuples, sorted — independent of CPU naming and of
    any construction order, so it is the stable tie-breaker that keeps
    candidate ordering deterministic when metrics are equal.
    """
    return tuple(
        sorted(tuple(sorted(plan.threads_on(cpu))) for cpu in plan.cpus)
    )


def clusters_signature(
    clusters: Sequence[Sequence[str]],
) -> Tuple[Tuple[str, ...], ...]:
    """Canonical key of a raw clustering (pre-:class:`DeploymentPlan`)."""
    return tuple(sorted(tuple(sorted(cluster)) for cluster in clusters))


def candidate_sort_key(
    candidate: Candidate,
) -> Tuple[float, int, Tuple[Tuple[str, ...], ...]]:
    """Best-first ordering: metric, CPU count, then plan content.

    Strictly a function of the candidate's contents — never of evaluation
    timing or enumeration order — per the module determinism contract.
    """
    return (
        candidate.metric,
        candidate.cpu_count,
        plan_signature(candidate.plan),
    )


def _set_partitions(items: Sequence[str]) -> Iterator[List[List[str]]]:
    """Enumerate all set partitions of ``items`` (restricted-growth)."""
    items = list(items)
    if not items:
        yield []
        return

    def grow(index: int, groups: List[List[str]]):
        if index == len(items):
            yield [list(g) for g in groups]
            return
        item = items[index]
        for group in groups:
            group.append(item)
            yield from grow(index + 1, groups)
            group.pop()
        groups.append([item])
        yield from grow(index + 1, groups)
        groups.pop()

    yield from grow(1, [[items[0]]])


def _evaluate(
    graph: TaskGraph,
    clusters: Sequence[Sequence[str]],
    platform: Optional[Platform],
    cycles_per_unit: float,
    objective: str = "latency",
) -> Candidate:
    """Evaluate one clustering into a :class:`Candidate`.

    The clock here only produces the ``dse.evaluate`` timer — it never
    influences the candidate or its ranking.
    """
    rec = _obs.get()
    if rec.enabled:
        start = time.perf_counter()
    plan = plan_from_clusters(clusters)
    estimate = estimate_allocation(
        graph, plan, platform, cycles_per_unit=cycles_per_unit
    )
    candidate = Candidate(plan=plan, estimate=estimate, objective=objective)
    if rec.enabled:
        rec.observe("dse.evaluate", time.perf_counter() - start)
        rec.incr("dse.candidates")
    return candidate


def _evaluate_serial(
    graph: TaskGraph,
    variants: List[List[List[str]]],
    platform: Optional[Platform],
    cycles_per_unit: float,
    objective: str,
) -> List[Candidate]:
    """Evaluate ``variants`` in-process, batching when it pays off.

    Above :data:`DSE_BATCH_MIN` candidates (and unless ``REPRO_DSE_BATCH``
    disables it) the estimates come from the vectorized
    :func:`repro.dse.estimate.estimate_allocations`, which is bit-identical
    to the per-candidate loop; ``dse.candidates`` still counts every
    candidate and the ``dse.evaluate`` timer still records one observation
    per candidate (the batch's wall time split evenly), so dashboards and
    counter-pinning tests see the same totals either way.
    """
    if len(variants) < DSE_BATCH_MIN or not _batch_estimation_enabled():
        return [
            _evaluate(graph, clusters, platform, cycles_per_unit, objective)
            for clusters in variants
        ]
    rec = _obs.get()
    if rec.enabled:
        start = time.perf_counter()
    plans = [plan_from_clusters(clusters) for clusters in variants]
    estimates = estimate_allocations(
        graph, plans, platform, cycles_per_unit=cycles_per_unit
    )
    candidates = [
        Candidate(plan=plan, estimate=estimate, objective=objective)
        for plan, estimate in zip(plans, estimates)
    ]
    if rec.enabled:
        share = (time.perf_counter() - start) / len(candidates)
        for _ in candidates:
            rec.observe("dse.evaluate", share)
            rec.incr("dse.candidates")
        rec.incr("dse.estimate.batched", len(candidates))
    return candidates


def _evaluate_many(
    graph: TaskGraph,
    variants: List[List[List[str]]],
    platform: Optional[Platform],
    cycles_per_unit: float,
    objective: str,
    memo: Dict[Tuple[Tuple[str, ...], ...], Candidate],
) -> List[Candidate]:
    """Evaluate many clusterings, preserving input order.

    ``memo`` short-circuits clusterings already evaluated (keyed by
    :func:`clusters_signature` — greedy's neighbourhoods overlap heavily
    between iterations) and duplicates within ``variants``, so the
    returned list is what evaluating every clustering would produce.
    """
    keys = [clusters_signature(clusters) for clusters in variants]
    pending: Dict[Tuple[Tuple[str, ...], ...], List[List[str]]] = {}
    for key, clusters in zip(keys, variants):
        if key not in memo and key not in pending:
            pending[key] = clusters
    evaluated = _evaluate_serial(
        graph, list(pending.values()), platform, cycles_per_unit, objective
    )
    memo.update(zip(pending, evaluated))
    return [memo[key] for key in keys]


def _check_max_cpus(max_cpus: Optional[int]) -> None:
    """Reject a CPU budget no allocation can meet."""
    if max_cpus is not None and max_cpus < 1:
        raise ExplorationError(
            f"max_cpus must be at least 1, not {max_cpus!r}"
        )


def exhaustive_explore(
    graph: TaskGraph,
    *,
    max_cpus: Optional[int] = None,
    platform: Optional[Platform] = None,
    cycles_per_unit: float = 50.0,
    limit_threads: int = 10,
    objective: str = "latency",
) -> List[Candidate]:
    """Evaluate every set partition of the threads (small systems only).

    Returns all candidates sorted by (objective metric, cpu_count, plan
    content).  ``objective``: ``"latency"`` minimizes one-iteration
    makespan, ``"throughput"`` minimizes the steady-state initiation
    interval (the right goal for streaming pipelines).
    """
    _check_max_cpus(max_cpus)
    threads = sorted(graph.node_weights)
    if len(threads) > limit_threads:
        raise ExplorationError(
            f"exhaustive exploration over {len(threads)} threads would "
            f"enumerate too many partitions; use greedy_explore"
        )
    partitions = [
        clusters
        for clusters in _set_partitions(threads)
        if max_cpus is None or len(clusters) <= max_cpus
    ]
    candidates = _evaluate_serial(
        graph, partitions, platform, cycles_per_unit, objective
    )
    candidates.sort(key=candidate_sort_key)
    return candidates


def greedy_explore(
    graph: TaskGraph,
    *,
    max_cpus: Optional[int] = None,
    platform: Optional[Platform] = None,
    cycles_per_unit: float = 50.0,
    max_iterations: int = 200,
    objective: str = "latency",
) -> List[Candidate]:
    """Hill-climb from the linear-clustering seed.

    Moves: relocate one thread to another (or a fresh) cluster; merge two
    clusters.  Accepts a move when it strictly improves (makespan,
    cpu_count) lexicographically.  Returns the visited local optima plus
    the seed, best-first.  Re-visited clusterings are served from an
    evaluation memo (neighbourhoods overlap between iterations), which
    never changes any result.
    """
    _check_max_cpus(max_cpus)
    seed_clusters = [
        list(c) for c in linear_clustering(graph).clusters
    ]
    if max_cpus is not None:
        while len(seed_clusters) > max_cpus:
            # Merge the two smallest clusters until within budget.
            seed_clusters.sort(key=len)
            seed_clusters[1].extend(seed_clusters[0])
            seed_clusters.pop(0)
    memo: Dict[Tuple[Tuple[str, ...], ...], Candidate] = {}
    visited: List[Candidate] = []
    current = _evaluate(
        graph, seed_clusters, platform, cycles_per_unit, objective
    )
    memo[clusters_signature(seed_clusters)] = current
    visited.append(current)
    clusters = [list(c) for c in seed_clusters]

    for _ in range(max_iterations):
        variants = list(_neighbourhood(clusters, max_cpus))
        evaluated = _evaluate_many(
            graph, variants, platform, cycles_per_unit, objective, memo=memo
        )
        best_move: Optional[Tuple[List[List[str]], Candidate]] = None
        current_key = (current.metric, current.cpu_count)
        for variant, candidate in zip(variants, evaluated):
            key = (candidate.metric, candidate.cpu_count)
            if key < current_key and (
                best_move is None
                or key < (best_move[1].metric, best_move[1].cpu_count)
            ):
                best_move = (variant, candidate)
        if best_move is None:
            break
        clusters = [list(c) for c in best_move[0]]
        current = best_move[1]
        visited.append(current)

    visited.sort(key=candidate_sort_key)
    return visited


def _neighbourhood(
    clusters: List[List[str]], max_cpus: Optional[int]
) -> Iterator[List[List[str]]]:
    """Single-thread moves and pairwise merges of a clustering."""
    count = len(clusters)
    for source_index in range(count):
        for thread in clusters[source_index]:
            # Move to every other existing cluster.
            for target_index in range(count):
                if target_index == source_index:
                    continue
                variant = [list(c) for c in clusters]
                variant[source_index].remove(thread)
                variant[target_index].append(thread)
                yield [c for c in variant if c]
            # Move to a fresh cluster.
            if len(clusters[source_index]) > 1 and (
                max_cpus is None or count + 1 <= max_cpus
            ):
                variant = [list(c) for c in clusters]
                variant[source_index].remove(thread)
                variant.append([thread])
                yield variant
    for a, b in itertools.combinations(range(count), 2):
        variant = [list(c) for i, c in enumerate(clusters) if i not in (a, b)]
        variant.append(list(clusters[a]) + list(clusters[b]))
        yield variant


def pareto_front(
    candidates: Iterable[Candidate], objective: str = "latency"
) -> List[Candidate]:
    """The (objective metric, cpu_count) Pareto-optimal subset.

    Among candidates with identical keys the representative with the
    smallest plan signature is kept — a function of candidate content, not
    of input order — and the front is sorted by CPU count with plan
    content breaking exact ties, so the front is deterministic end to end.
    """
    unique: Dict[Tuple[float, int], Candidate] = {}
    for candidate in candidates:
        key = (candidate.estimate.metric(objective), candidate.cpu_count)
        existing = unique.get(key)
        if existing is None or plan_signature(candidate.plan) < plan_signature(
            existing.plan
        ):
            unique[key] = candidate
    front: List[Candidate] = []
    for candidate in unique.values():
        if not any(
            other.estimate.dominates(candidate.estimate, objective)
            for other in unique.values()
        ):
            front.append(candidate)
    front.sort(
        key=lambda c: (
            c.cpu_count,
            c.estimate.metric(objective),
            plan_signature(c.plan),
        )
    )
    return front


def explore(
    graph: TaskGraph,
    *,
    exhaustive_threshold: int = 8,
    max_cpus: Optional[int] = None,
    platform: Optional[Platform] = None,
    cycles_per_unit: float = 50.0,
    objective: str = "latency",
) -> List[Candidate]:
    """Front door: exhaustive when small, greedy otherwise."""
    rec = _obs.get()
    threads = len(graph.node_weights)
    strategy = "exhaustive" if threads <= exhaustive_threshold else "greedy"
    with rec.span(
        "dse.explore",
        category="dse",
        threads=threads,
        strategy=strategy,
        objective=objective,
    ) as span:
        if strategy == "exhaustive":
            candidates = exhaustive_explore(
                graph,
                max_cpus=max_cpus,
                platform=platform,
                cycles_per_unit=cycles_per_unit,
                objective=objective,
            )
        else:
            candidates = greedy_explore(
                graph,
                max_cpus=max_cpus,
                platform=platform,
                cycles_per_unit=cycles_per_unit,
                objective=objective,
            )
        span.set(candidates=len(candidates))
    return candidates
