"""Rule-based model-to-model transformation engine.

A small, explicit engine in the spirit of ATL/QVT-operational (which the
paper proposes using for flexibility): a :class:`Transformation` owns an
ordered list of :class:`Rule` objects, each with

- ``match``: a source-element type plus an optional guard predicate, and
- ``apply``: a function receiving the matched element and the running
  :class:`TransformationContext`, returning the created target element(s).

Execution walks the source elements in a caller-supplied iteration order,
fires the first (or all, see ``exclusive``) matching rules, and records
source→target trace links.  Rules can resolve earlier rules' outputs via
``context.resolve`` — the standard two-phase create/bind idiom — and queue
``context.defer`` callbacks that run after the sweep, for bindings that
need every element created first (our channel inference does this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Type

from ..obs import recorder as _obs
from .trace import TraceError, TraceStore


class TransformationError(Exception):
    """Raised when a transformation cannot complete."""


class TransformationContext:
    """Shared state threaded through rule applications."""

    def __init__(self, target: Any, options: Optional[Dict[str, Any]] = None) -> None:
        #: The target model under construction (engine-agnostic).
        self.target = target
        #: Free-form options for the rules (e.g. the deployment plan).
        self.options: Dict[str, Any] = dict(options or {})
        self.trace = TraceStore()
        self._deferred: List[Callable[["TransformationContext"], None]] = []

    def resolve(self, source: Any, role: str = "") -> Any:
        """Resolve the target created from ``source`` by an earlier rule."""
        return self.trace.resolve(source, role)

    def try_resolve(self, source: Any, role: str = "") -> Optional[Any]:
        """Like :meth:`resolve` but returns ``None`` when unresolved."""
        return self.trace.try_resolve(source, role)

    def defer(self, action: Callable[["TransformationContext"], None]) -> None:
        """Queue an action to run after the element sweep completes."""
        self._deferred.append(action)

    def run_deferred(self) -> None:
        """Drain the deferred-action queue (may enqueue more)."""
        # Deferred actions may enqueue further actions; drain the queue.
        while self._deferred:
            action = self._deferred.pop(0)
            action(self)


@dataclass
class Rule:
    """One transformation rule.

    Parameters
    ----------
    name:
        Rule name, recorded on trace links.
    source_type:
        Source metamodel class the rule matches.
    apply:
        ``apply(element, context) -> target | [targets] | None``.  Returned
        targets are trace-linked to the element.
    guard:
        Optional extra predicate on the element.
    role:
        Trace role attached to the created links.
    """

    name: str
    source_type: Type
    apply: Callable[[Any, TransformationContext], Any]
    guard: Optional[Callable[[Any], bool]] = None
    role: str = ""

    def matches(self, element: Any) -> bool:
        """Whether the rule applies to ``element`` (type + guard)."""
        if not isinstance(element, self.source_type):
            return False
        if self.guard is not None and not self.guard(element):
            return False
        return True


class Transformation:
    """An ordered collection of rules executed over a source sweep."""

    def __init__(self, name: str, *, exclusive: bool = True) -> None:
        self.name = name
        self.rules: List[Rule] = []
        #: With ``exclusive`` (the ATL default) only the first matching rule
        #: fires per element; otherwise all matching rules fire.
        self.exclusive = exclusive

    def rule(
        self,
        name: str,
        source_type: Type,
        guard: Optional[Callable[[Any], bool]] = None,
        role: str = "",
    ) -> Callable[[Callable[[Any, TransformationContext], Any]], Rule]:
        """Decorator registering a rule::

            @transformation.rule("thread2subsystem", Lifeline,
                                 guard=lambda l: l.is_thread)
            def thread_to_subsystem(lifeline, context):
                ...
        """

        def wrap(fn: Callable[[Any, TransformationContext], Any]) -> Rule:
            rule = Rule(name, source_type, fn, guard, role)
            self.rules.append(rule)
            return rule

        return wrap

    def add_rule(self, rule: Rule) -> Rule:
        """Register a rule (fires in registration order)."""
        self.rules.append(rule)
        return rule

    def run(
        self,
        elements: Iterable[Any],
        target: Any,
        options: Optional[Dict[str, Any]] = None,
    ) -> TransformationContext:
        """Execute the transformation over ``elements`` into ``target``.

        Returns the context (carrying trace links and the target model).
        """
        context = TransformationContext(target, options)
        rec = _obs.get()
        for element in elements:
            for rule in self.rules:
                if not rule.matches(element):
                    continue
                with rec.span(
                    "rule." + rule.name, category="transform"
                ) as span:
                    produced = rule.apply(element, context)
                    created = self._record(
                        context, rule, element, produced, span.id
                    )
                    if rec.enabled:
                        span.set(
                            element=type(element).__name__, targets=created
                        )
                if self.exclusive:
                    break
            # Elements matched by no rule are simply skipped, as in ATL.
        with rec.span("transform.deferred", category="transform"):
            context.run_deferred()
        return context

    @staticmethod
    def _record(
        context: TransformationContext,
        rule: Rule,
        element: Any,
        produced: Any,
        span_id: Optional[int] = None,
    ) -> int:
        """Trace-link the produced target(s); returns how many were linked."""
        if produced is None:
            return 0
        if isinstance(produced, (list, tuple)):
            created = 0
            for target in produced:
                if target is not None:
                    context.trace.add(
                        rule.name, element, target, rule.role, span_id=span_id
                    )
                    created += 1
            return created
        context.trace.add(rule.name, element, produced, rule.role, span_id=span_id)
        return 1
