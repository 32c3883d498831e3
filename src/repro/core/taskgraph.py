"""Task-graph extraction from sequence diagrams.

Paper §4.2.3: "The data dependency between threads is captured from the
sequence diagrams, and a task graph is built, where the nodes are threads
and the edges have a cost.  This cost is determined by the amount of
transferred data."

Edges are directed from the data *producer* thread to the data *consumer*
thread:

- ``T1 -> T2 : getX(...)`` means T1 receives from T2  →  edge ``T2 -> T1``;
- ``T1 -> T3 : setX(v)``  means T1 sends to T3        →  edge ``T1 -> T3``.

Edge weight accumulates the message data volume (bits, from the operation
signature when typed, see :meth:`repro.uml.sequence.Message.data_width_bits`)
multiplied by the static loop multiplicity of the message.  Node weights
default to the number of local (non-communication) operations the thread
performs — a simple computation-cost proxy used by the clustering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..uml.model import Model
from ..uml.sequence import Interaction, Message


class TaskGraphError(Exception):
    """Raised on malformed task graphs."""


@dataclass
class TaskGraph:
    """A weighted directed graph of threads.

    ``node_weights`` are computation costs; ``edges`` maps ``(src, dst)`` to
    the communication cost (data volume).  ``priorities`` (UML-SPT
    ``SAPriority``, absent = 0) order simultaneously ready nodes: higher
    first, then by name.
    """

    node_weights: Dict[str, float] = field(default_factory=dict)
    edges: Dict[Tuple[str, str], float] = field(default_factory=dict)
    priorities: Dict[str, int] = field(default_factory=dict)

    # -- construction --------------------------------------------------------
    def add_node(self, name: str, weight: float = 1.0) -> None:
        """Add a thread node (keeps an existing node's weight)."""
        if name not in self.node_weights:
            self.node_weights[name] = weight

    def set_node_weight(self, name: str, weight: float) -> None:
        """Set (overwriting) a node's computation weight."""
        self.add_node(name)
        self.node_weights[name] = weight

    def add_edge(self, src: str, dst: str, weight: float) -> None:
        """Add (or accumulate onto) a directed edge."""
        if src == dst:
            return  # self-communication carries no allocation cost
        self.add_node(src)
        self.add_node(dst)
        self.edges[(src, dst)] = self.edges.get((src, dst), 0.0) + weight

    # -- queries ---------------------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        return list(self.node_weights)

    def edge_weight(self, src: str, dst: str) -> float:
        """Weight of edge ``src -> dst`` (0 when absent)."""
        return self.edges.get((src, dst), 0.0)

    def successors(self, node: str) -> List[str]:
        """Nodes receiving data from ``node``."""
        return [dst for (src, dst) in self.edges if src == node]

    def predecessors(self, node: str) -> List[str]:
        """Nodes sending data to ``node``."""
        return [src for (src, dst) in self.edges if dst == node]

    def out_edges(self, node: str) -> List[Tuple[str, str, float]]:
        """Outgoing edges of ``node`` as (src, dst, weight) triples."""
        return [
            (src, dst, w) for (src, dst), w in self.edges.items() if src == node
        ]

    def total_communication(self) -> float:
        """Sum of all edge weights."""
        return sum(self.edges.values())

    def is_dag(self) -> bool:
        """Whether the graph is acyclic."""
        order = self.topological_order()
        return order is not None

    def topological_order(self) -> Optional[List[str]]:
        """Kahn topological sort; ``None`` when the graph is cyclic.

        Ready nodes are taken by ``(-priority, name)``.
        """
        priorities = self.priorities

        def by_priority(name: str) -> Tuple[int, str]:
            return (-priorities.get(name, 0), name)

        rank = by_priority if priorities else None  # None: plain name order
        indegree = {node: 0 for node in self.node_weights}
        for (_, dst) in self.edges:
            indegree[dst] += 1
        ready = sorted((n for n, d in indegree.items() if d == 0), key=rank)
        order: List[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for (src, dst) in sorted(self.edges):
                if src == node:
                    indegree[dst] -= 1
                    if indegree[dst] == 0:
                        ready.append(dst)
            ready.sort(key=rank)
        if len(order) != len(self.node_weights):
            return None
        return order

    def condensation(self) -> Tuple["TaskGraph", Dict[str, str]]:
        """SCC condensation: a DAG over super-nodes.

        Returns ``(dag, member_of)`` where ``member_of`` maps each original
        node to its super-node name.  Super-node weight is the sum of member
        weights and its priority the highest member priority; intra-SCC
        edge costs are dropped (threads in one SCC will be co-allocated
        anyway); inter-SCC edges accumulate.
        """
        sccs = self._tarjan()
        member_of: Dict[str, str] = {}
        dag = TaskGraph()
        for scc in sccs:
            label = "+".join(sorted(scc))
            for node in scc:
                member_of[node] = label
            dag.add_node(label, sum(self.node_weights[n] for n in scc))
            if self.priorities:
                dag.priorities[label] = max(
                    self.priorities.get(n, 0) for n in scc
                )
        for (src, dst), weight in self.edges.items():
            a, b = member_of[src], member_of[dst]
            if a != b:
                dag.add_edge(a, b, weight)
        return dag, member_of

    def _tarjan(self) -> List[List[str]]:
        index_counter = [0]
        stack: List[str] = []
        lowlink: Dict[str, int] = {}
        index: Dict[str, int] = {}
        on_stack: Set[str] = set()
        result: List[List[str]] = []

        adjacency: Dict[str, List[str]] = {n: [] for n in self.node_weights}
        for (src, dst) in sorted(self.edges):
            adjacency[src].append(dst)

        def strongconnect(root: str) -> None:
            work = [(root, iter(adjacency[root]))]
            index[root] = lowlink[root] = index_counter[0]
            index_counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = lowlink[succ] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(adjacency[succ])))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    scc: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    result.append(sorted(scc))

        for node in sorted(self.node_weights):
            if node not in index:
                strongconnect(node)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TaskGraph {len(self.node_weights)} nodes, "
            f"{len(self.edges)} edges>"
        )


def producer_consumer(message: Message) -> Optional[Tuple[str, str]]:
    """Data producer/consumer thread names implied by an inter-thread call.

    ``None`` when the message is not an inter-thread communication.
    """
    if not message.is_inter_thread:
        return None
    if message.is_receive:
        # T1 -> T2 : getX()  — T1 pulls data from T2.
        return message.receiver.name, message.sender.name
    if message.is_send:
        # T1 -> T3 : setX(v) — T1 pushes data to T3.
        return message.sender.name, message.receiver.name
    return None


def build_task_graph(
    interactions: Sequence[Interaction],
    *,
    default_node_weight: float = 1.0,
) -> TaskGraph:
    """Build the thread task graph from a set of sequence diagrams."""
    graph = TaskGraph()
    local_ops: Dict[str, int] = {}
    for interaction in interactions:
        for lifeline in interaction.thread_lifelines():
            graph.add_node(lifeline.name, default_node_weight)
            local_ops.setdefault(lifeline.name, 0)
        for message in interaction.messages():
            pair = producer_consumer(message)
            if pair is not None:
                producer, consumer = pair
                weight = message.data_width_bits() * interaction.message_multiplicity(
                    message
                )
                graph.add_edge(producer, consumer, float(weight))
            elif message.sender.is_thread and not message.receiver.is_thread:
                # Local computation of the sending thread.
                local_ops[message.sender.name] = (
                    local_ops.get(message.sender.name, 0) + 1
                )
    for thread, count in local_ops.items():
        if count:
            graph.set_node_weight(thread, float(count))
    return graph


def task_graph_from_model(model: Model, **kwargs: object) -> TaskGraph:
    """Convenience wrapper over all interactions of a model."""
    return build_task_graph(model.interactions, **kwargs)  # type: ignore[arg-type]
