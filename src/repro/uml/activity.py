"""UML activity diagrams.

The paper lists activity-diagram support as future work ("we plan to extend
this mapping to support other UML diagrams, such as activity diagrams").
We implement that extension: an activity with object flows can describe a
thread's behaviour instead of a sequence diagram, and
:func:`repro.core.mapping` accepts either via the
:func:`interaction_from_activity` lowering below.

Supported subset: actions (call-behaviour style, carrying target/operation
annotations), object nodes, control/object flows, initial/final nodes, and
fork/join for parallelism.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, List, Optional

from .model import Element, InstanceSpecification, NamedElement, UmlError, UnknownElementError


class ActivityError(UmlError):
    """Raised on malformed activities."""


class ActivityNodeKind(enum.Enum):
    """Kinds of activity nodes (UML subset)."""

    INITIAL = "initial"
    FINAL = "final"
    ACTION = "action"
    OBJECT = "object"
    FORK = "fork"
    JOIN = "join"
    DECISION = "decision"
    MERGE = "merge"


class ActivityNode(NamedElement):
    """A node in an activity graph."""

    def __init__(
        self, name: str = "", kind: ActivityNodeKind = ActivityNodeKind.ACTION
    ) -> None:
        super().__init__(name)
        self.kind = kind
        self.incoming: List["ActivityEdge"] = []
        self.outgoing: List["ActivityEdge"] = []


class CallAction(ActivityNode):
    """An action that invokes an operation on a target instance.

    Mirrors a sequence-diagram message: ``target.operation(arguments) ->
    result``.  The lowering in :func:`interaction_from_activity` turns each
    call action into a :class:`repro.uml.sequence.Message`.
    """

    def __init__(
        self,
        name: str,
        target: Optional[InstanceSpecification] = None,
        operation: str = "",
        arguments: Optional[List[str]] = None,
        result: Optional[str] = None,
    ) -> None:
        super().__init__(name, ActivityNodeKind.ACTION)
        self.target = target
        self.operation = operation or name
        self.arguments = list(arguments or [])
        self.result = result


class ObjectNode(ActivityNode):
    """An object node buffering a dataflow variable."""

    def __init__(self, name: str) -> None:
        super().__init__(name, ActivityNodeKind.OBJECT)


class ActivityEdge(Element):
    """A control or object flow between two nodes."""

    def __init__(
        self, source: ActivityNode, target: ActivityNode, guard: str = ""
    ) -> None:
        super().__init__()
        self.source = source
        self.target = target
        self.guard = guard
        source.outgoing.append(self)
        target.incoming.append(self)

    @property
    def is_object_flow(self) -> bool:
        return isinstance(self.source, ObjectNode) or isinstance(
            self.target, ObjectNode
        )


class Activity(NamedElement):
    """An activity: a graph of nodes and edges, owned by a thread.

    ``performer`` names the thread instance whose behaviour this activity
    describes (analogous to the thread lifeline of a sequence diagram).
    """

    def __init__(
        self, name: str = "", performer: Optional[InstanceSpecification] = None
    ) -> None:
        super().__init__(name)
        self.performer = performer
        self.nodes: List[ActivityNode] = []
        self.edges: List[ActivityEdge] = []

    def add_node(self, node: ActivityNode) -> ActivityNode:
        """Add a node; names must be unique per activity."""
        if any(n.name == node.name for n in self.nodes):
            raise ActivityError(
                f"activity {self.name!r} already has node {node.name!r}"
            )
        node.owner = self
        self.nodes.append(node)
        model = self.model
        if model is not None:
            model.register(node)
        return node

    def add_edge(self, edge: ActivityEdge) -> ActivityEdge:
        """Add an edge between nodes of this activity."""
        for end in (edge.source, edge.target):
            if end not in self.nodes:
                raise ActivityError(
                    f"edge references node {end.name!r} outside activity "
                    f"{self.name!r}"
                )
        edge.owner = self
        self.edges.append(edge)
        model = self.model
        if model is not None:
            model.register(edge)
        return edge

    def node(self, name: str) -> ActivityNode:
        """Look up a node by name."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise UnknownElementError(f"activity {self.name!r} has no node {name!r}")

    def actions_in_order(self) -> List[CallAction]:
        """Call actions in a topological order of the activity graph.

        Raises :class:`ActivityError` when the control-flow graph is cyclic
        (activities used for thread behaviour must be acyclic; loops belong
        in the generated dataflow model, not here).
        """
        indegree = {node: 0 for node in self.nodes}
        for edge in self.edges:
            indegree[edge.target] += 1
        ready = [n for n in self.nodes if indegree[n] == 0]
        ordered: List[ActivityNode] = []
        while ready:
            node = ready.pop(0)
            ordered.append(node)
            for edge in node.outgoing:
                indegree[edge.target] -= 1
                if indegree[edge.target] == 0:
                    ready.append(edge.target)
        if len(ordered) != len(self.nodes):
            raise ActivityError(
                f"activity {self.name!r} has a cyclic control flow"
            )
        return [n for n in ordered if isinstance(n, CallAction)]

    def owned_elements(self) -> Iterator[Element]:
        return itertools.chain(self.nodes, self.edges)


def interaction_from_activity(activity: Activity) -> "object":
    """Lower an activity into an equivalent interaction.

    Each :class:`CallAction` becomes a message from the performer's lifeline
    to the target's lifeline, ordered topologically.  Object nodes become
    the dataflow variables.  This realizes the paper's future-work goal of
    accepting activity diagrams as behaviour specifications.
    """
    from .sequence import Interaction, Lifeline, Message

    if activity.performer is None:
        raise ActivityError(
            f"activity {activity.name!r} has no performer thread"
        )
    interaction = Interaction(activity.name)
    performer_ll = interaction.add_lifeline(
        Lifeline(activity.performer.name, instance=activity.performer)
    )
    for action in activity.actions_in_order():
        if action.target is None:
            target_ll = performer_ll
        else:
            target_ll = interaction.lifeline_for(action.target)
        interaction.add_message(
            Message(
                performer_ll,
                target_ll,
                action.operation,
                arguments=list(action.arguments),
                result=action.result,
            )
        )
    return interaction
