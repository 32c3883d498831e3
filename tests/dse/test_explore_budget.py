"""A CPU budget below one is refused by every explorer."""

import pytest

from repro.apps.synthetic import task_graph
from repro.core import TaskGraph
from repro.dse import (
    ExplorationError,
    exhaustive_explore,
    explore,
    greedy_explore,
)


def _small_graph():
    graph = TaskGraph()
    graph.add_edge("A", "B", 320)
    graph.add_edge("C", "D", 320)
    return graph


@pytest.mark.parametrize("max_cpus", [0, -1])
@pytest.mark.parametrize(
    "run",
    [
        lambda m: explore(_small_graph(), max_cpus=m),  # exhaustive path
        lambda m: explore(task_graph(), max_cpus=m),  # greedy path
        lambda m: exhaustive_explore(_small_graph(), max_cpus=m),
        lambda m: greedy_explore(_small_graph(), max_cpus=m),
    ],
    ids=["explore-exhaustive", "explore-greedy", "exhaustive", "greedy"],
)
def test_budget_below_one_is_rejected(run, max_cpus):
    with pytest.raises(ExplorationError, match="max_cpus must be at least 1"):
        run(max_cpus)


def test_budget_of_one_puts_everything_on_one_cpu():
    for candidates in (
        explore(_small_graph(), max_cpus=1),
        explore(task_graph(), max_cpus=1),
    ):
        assert candidates
        assert all(c.cpu_count == 1 for c in candidates)
