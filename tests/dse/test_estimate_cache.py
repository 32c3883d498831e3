"""Plan-independent table caching in repro.dse.estimate.

``estimate_allocation`` caches the graph condensation, topological order,
and per-``cycles_per_unit`` duration tables keyed by graph identity plus
a content fingerprint; the cache must be invisible (same numbers warm or
cold) and must invalidate when the graph mutates in place.
"""

import pytest

from repro import obs
from repro.core import TaskGraph
from repro.dse import estimate_allocation
from repro.dse.estimate import _TABLE_CACHE, _tables_for
from repro.uml import DeploymentPlan


def _graph():
    graph = TaskGraph()
    graph.add_node("A", 1)
    graph.add_node("B", 2)
    graph.add_node("C", 1)
    graph.add_edge("A", "B", 32)
    graph.add_edge("B", "C", 64)
    return graph


def _plan(**mapping):
    return DeploymentPlan.from_mapping(mapping)


class TestTableCache:
    def test_warm_cache_returns_identical_estimate(self):
        graph = _graph()
        plan = _plan(A="CPU0", B="CPU0", C="CPU1")
        cold = estimate_allocation(graph, plan, cycles_per_unit=50)
        warm = estimate_allocation(graph, plan, cycles_per_unit=50)
        assert warm == cold

    def test_cache_matches_fresh_graph(self):
        graph = _graph()
        plan = _plan(A="CPU0", B="CPU1", C="CPU1")
        estimate_allocation(graph, plan, cycles_per_unit=50)
        cached = estimate_allocation(graph, plan, cycles_per_unit=50)
        fresh = estimate_allocation(_graph(), plan, cycles_per_unit=50)
        assert cached == fresh

    def test_mutated_graph_invalidates_fingerprint(self):
        graph = _graph()
        plan = _plan(A="CPU0", B="CPU0", C="CPU0")
        before = estimate_allocation(graph, plan, cycles_per_unit=50)
        graph.add_node("D", 3)
        after = estimate_allocation(
            graph, _plan(A="CPU0", B="CPU0", C="CPU0", D="CPU0"), cycles_per_unit=50
        )
        assert after.makespan_cycles > before.makespan_cycles
        expected = estimate_allocation(
            graph, _plan(A="CPU0", B="CPU0", C="CPU0", D="CPU0"), cycles_per_unit=50
        )
        assert after == expected

    def test_distinct_cycles_per_unit_cached_independently(self):
        graph = _graph()
        plan = _plan(A="CPU0", B="CPU0", C="CPU0")
        fast = estimate_allocation(graph, plan, cycles_per_unit=10)
        slow = estimate_allocation(graph, plan, cycles_per_unit=100)
        assert slow.makespan_cycles > fast.makespan_cycles
        assert estimate_allocation(graph, plan, cycles_per_unit=10) == fast

    def test_cache_entry_evicted_when_graph_collected(self):
        import gc

        graph = _graph()
        _tables_for(graph)
        key = id(graph)
        assert key in _TABLE_CACHE
        del graph
        gc.collect()
        assert key not in _TABLE_CACHE

    def test_hit_and_miss_counters(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            graph = _graph()
            plan = _plan(A="CPU0", B="CPU0", C="CPU0")
            estimate_allocation(graph, plan, cycles_per_unit=50)
            estimate_allocation(graph, plan, cycles_per_unit=50)
        metrics = recorder.metrics
        assert metrics.counter("dse.estimate.table_misses") == 1
        assert metrics.counter("dse.estimate.table_hits") == 1

