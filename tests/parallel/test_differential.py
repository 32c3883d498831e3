"""Differential tests: batched explorers must be bit-equal to scalar ones.

From :data:`repro.dse.explore.DSE_BATCH_MIN` candidates the explorers
estimate a whole batch of plans at once (``estimate_allocations``); with
``REPRO_DSE_BATCH=0`` they estimate one plan at a time.  The batch is an
execution substrate, never an answer-changer: both paths return the *same
candidate list in the same order*.  A seeded RNG generates the graphs so
failures replay.
"""

import random

import pytest

from repro.core.taskgraph import TaskGraph
from repro.dse.explore import exhaustive_explore, greedy_explore


def canonical(candidate):
    """A comparable, content-only rendering of a candidate."""
    return (
        candidate.objective,
        candidate.plan.as_mapping(),
        candidate.plan.cpus,
        candidate.estimate,
    )


def random_graph(rng: random.Random, threads: int) -> TaskGraph:
    """A random weighted digraph over ``threads`` nodes (may have cycles)."""
    graph = TaskGraph()
    names = [f"T{i}" for i in range(threads)]
    for name in names:
        graph.add_node(name, float(rng.randint(1, 4)))
    for src in names:
        for dst in names:
            if src != dst and rng.random() < 0.35:
                graph.add_edge(src, dst, float(rng.randint(1, 8) * 32))
    return graph

#: Seeds × sizes; ≤8 threads keeps Bell numbers (≤4140) test-friendly.
CASES = [(seed, 3 + seed % 6) for seed in range(6)]


class TestExhaustiveDifferential:
    def test_objective_and_max_cpus_survive_parallelism(self, monkeypatch):
        graph = random_graph(random.Random(99), 6)
        batched = exhaustive_explore(graph, objective="throughput", max_cpus=3)
        monkeypatch.setenv("REPRO_DSE_BATCH", "0")
        scalar = exhaustive_explore(graph, objective="throughput", max_cpus=3)
        assert [canonical(c) for c in batched] == [
            canonical(c) for c in scalar
        ]
        # Partitions of 6 threads into ≤3 blocks: S(6,1)+S(6,2)+S(6,3).
        assert len(batched) == 1 + 31 + 90
        assert all(c.cpu_count <= 3 for c in batched)
        assert all(c.objective == "throughput" for c in batched)


class TestGreedyDifferential:
    @pytest.mark.parametrize("seed,threads", CASES)
    def test_greedy_never_beats_exhaustive_optimum(self, seed, threads):
        graph = random_graph(random.Random(200 + seed), threads)
        optimum = exhaustive_explore(graph)[0]
        best_greedy = greedy_explore(graph)[0]
        assert optimum.metric <= best_greedy.metric
