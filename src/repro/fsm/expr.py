"""The FSM guard/action language: parsed once, evaluated without ``eval``,
printed as C or Java.

The one module that knows what that text means (simulator, printers and
analyzer use its :class:`Expr`); the grammar, read by :func:`ast.parse`::

    guard   := test
    actions := [stmt] (";" [stmt])*
    stmt    := NAME "=" arith | test | arith
    test    := test ("and" | "or") test | "not" test | "(" test ")"
             | arith ("<" | "<=" | ">" | ">=" | "==" | "!=") arith
    arith   := arith ("+" | "-" | "*" | "/") arith | ("-" | "+") arith
             | NUMBER | NAME | "(" arith ")"
             | "abs(" arith ")" | ("min" | "max") "(" arith "," arith ")"

``NUMBER`` is a finite int or float literal (an int past 32 bits reads as
a float, which Java can print).  Truth values and numbers never mix, so
``and``/``or``/``not`` mean the same in Python, C and Java.  Evaluation
keeps Python's meaning: ``/`` is true division (printed with a
``(double)`` cast between int literals).  Printing uses the target's
precedence: ``not n < 1`` prints as ``!(n < 1)``.  Text is untrusted, so
it is size-capped and any failure to parse raises :class:`ExprError`.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Callable, FrozenSet, Optional, Set, Tuple

from ..obs import recorder as _obs
from .model import FsmError

MAX_LENGTH = 1000  # characters of one guard or action text
MAX_DEPTH = 50  # tree levels; bounds every recursion over a tree

#: Operator -> (C/Java token, C precedence, closure factory[, one inlining a constant right operand]).
_OPS = {
    ast.Or: ("||", 1, lambda a, b: lambda e: a(e) or b(e)),
    ast.And: ("&&", 2, lambda a, b: lambda e: a(e) and b(e)),
    ast.Eq: ("==", 3, lambda a, b: lambda e: a(e) == b(e), lambda a, c: lambda e: a(e) == c),
    ast.NotEq: ("!=", 3, lambda a, b: lambda e: a(e) != b(e), lambda a, c: lambda e: a(e) != c),
    ast.Lt: ("<", 4, lambda a, b: lambda e: a(e) < b(e), lambda a, c: lambda e: a(e) < c),
    ast.LtE: ("<=", 4, lambda a, b: lambda e: a(e) <= b(e), lambda a, c: lambda e: a(e) <= c),
    ast.Gt: (">", 4, lambda a, b: lambda e: a(e) > b(e), lambda a, c: lambda e: a(e) > c),
    ast.GtE: (">=", 4, lambda a, b: lambda e: a(e) >= b(e), lambda a, c: lambda e: a(e) >= c),
    ast.Add: ("+", 5, lambda a, b: lambda e: a(e) + b(e), lambda a, c: lambda e: a(e) + c),
    ast.Sub: ("-", 5, lambda a, b: lambda e: a(e) - b(e), lambda a, c: lambda e: a(e) - c),
    ast.Mult: ("*", 6, lambda a, b: lambda e: a(e) * b(e), lambda a, c: lambda e: a(e) * c),
    ast.Div: ("/", 6, lambda a, b: lambda e: a(e) / b(e), lambda a, c: lambda e: a(e) / c),
    ast.Not: ("!", 7, lambda a: lambda e: not a(e)),
    ast.USub: ("-", 7, lambda a: lambda e: -a(e)),
    ast.UAdd: ("+", 7, lambda a: lambda e: +a(e)),
}
_ATOM = 8  # names, literals and calls never need parentheses

#: Function -> (arity, closure factory, C name, Java name).
_CALLS = {
    "abs": (1, lambda a: lambda e: abs(a(e)), "fabs", "Math.abs"),
    "min": (2, lambda a, b: lambda e: min(a(e), b(e)), "fmin", "Math.min"),
    "max": (2, lambda a, b: lambda e: max(a(e), b(e)), "fmax", "Math.max"),
}


class ExprError(FsmError):
    """Raised on guard or action text outside the language."""


@dataclass(frozen=True, eq=False)
class Expr:
    """A parsed guard or action list (then ``tree`` is an ``ast.Module``);
    ``evaluate(env)`` returns the guard or runs the actions on ``env``."""

    tree: ast.AST
    names: FrozenSet[str]
    calls: FrozenSet[str]
    evaluate: Callable[[dict], object]

    def render(self, prefix: str, java: bool = False) -> str:
        """C (or Java) source; variable ``v`` prints as ``prefix + v``."""
        return _render(self.tree, prefix, java)[0]


class _Compiler:
    """One validating pass: checks the whitelist, builds the closures."""

    def __init__(self) -> None:
        self.source = ""
        self.names: Set[str] = set()
        self.calls: Set[str] = set()

    def fail(self, node: ast.AST, why: str) -> ExprError:
        segment = ast.get_source_segment(self.source, node)
        return ExprError(f"{segment!r} is {why}")

    def expr(self, node: ast.AST, truth: Optional[bool], depth=0):
        """Closure for ``node``; ``truth`` is the sort its context wants."""
        if depth > MAX_DEPTH:
            raise ExprError(f"nested deeper than {MAX_DEPTH} levels")
        sub = partial(self.expr, depth=depth + 1)
        ops = getattr(node, "ops", [getattr(node, "op", None)])
        op = _OPS.get(type(ops[0])) if len(ops) == 1 else None
        call = _CALLS.get(getattr(getattr(node, "func", None), "id", None))
        is_truth = isinstance(node, (ast.BoolOp, ast.Compare)) or isinstance(ops[0], ast.Not)
        if isinstance(node, ast.BoolOp):
            fn = reduce(op[2], [sub(value, True) for value in node.values])
        elif isinstance(node, ast.UnaryOp) and op:
            fn = op[2](sub(node.operand, is_truth))
        elif isinstance(node, (ast.BinOp, ast.Compare)) and op:
            right = node.comparators[0] if is_truth else node.right
            a, b = sub(node.left, False), sub(right, False)
            constant = isinstance(right, ast.Constant)
            fn = op[3](a, right.value) if constant else op[2](a, b)
        elif isinstance(node, ast.Call) and call and not node.keywords and len(node.args) == call[0]:
            self.calls.add(node.func.id)
            fn = call[1](*[sub(arg, False) for arg in node.args])
        elif isinstance(node, ast.Name):
            name = node.id
            self.names.add(name)
            def fn(env: dict) -> object:
                try:
                    return env[name]
                except KeyError:
                    raise NameError(f"name {name!r} is not defined") from None
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            if not math.isfinite(node.value):
                raise self.fail(node, "not a finite number")
            if abs(node.value) > 2**31 - 1:
                node.value = float(node.value)
            fn = (lambda value: lambda e: value)(node.value)
        else:
            raise self.fail(node, "not in the language")
        if truth is not None and is_truth != truth:
            raise self.fail(node, "not " + ("a comparison or and/or/not" if truth else "a number"))
        return fn

    def statement(self, node: ast.stmt) -> Callable[[dict], object]:
        if isinstance(node, ast.Expr):
            return self.expr(node.value, None)
        targets = node.targets if isinstance(node, ast.Assign) else []
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            raise self.fail(node, "not an assignment or expression")
        name, value = targets[0].id, self.expr(node.value, False)
        self.names.add(name)
        def assign(env: dict) -> None:
            env[name] = value(env)
        return assign


def _parse(kind: str, text: str) -> Expr:
    if len(text) > MAX_LENGTH:
        raise ExprError(f"{kind} is longer than {MAX_LENGTH} characters")
    compiler = _Compiler()
    try:
        if kind == "guard":
            compiler.source = text.strip()
            tree = ast.parse(compiler.source, mode="eval").body
            evaluate = compiler.expr(tree, True)
        else:
            body, steps = [], []
            for part in text.split(";"):
                compiler.source = part.strip()
                for stmt in ast.parse(compiler.source).body:
                    body.append(stmt)
                    steps.append(compiler.statement(stmt))
            tree = ast.Module(body=body, type_ignores=[])
            evaluate = steps[0] if len(steps) == 1 else lambda e: [f(e) for f in steps]
    except ExprError as exc:
        raise ExprError(f"{kind} {text!r}: {exc}") from None
    except (SyntaxError, ValueError, OverflowError, RecursionError, MemoryError) as exc:
        raise ExprError(f"{kind} {text!r} does not parse: {exc}") from None
    rec = _obs.get()
    if rec.enabled:
        rec.incr("fsm.compile.exprs", len(getattr(tree, "body", [tree])))
    return Expr(tree, frozenset(compiler.names), frozenset(compiler.calls), evaluate)


@lru_cache(maxsize=4096)
def parse_guard(text: str) -> Expr:
    """Parse a transition guard (cached per text)."""
    return _parse("guard", text)


@lru_cache(maxsize=4096)
def parse_actions(text: str) -> Expr:
    """Parse a ``;``-separated action list (cached per text)."""
    return _parse("action", text)


def texts(fsm):
    """``(owner, parser, text)`` for every guard and action of ``fsm``."""
    for t in fsm.transitions:
        yield f"transition {t.label()!r}", parse_guard, t.guard
        yield f"transition {t.label()!r}", parse_actions, t.action
    for state in fsm.states.values():
        yield f"state {state.name!r}", parse_actions, state.entry
        yield f"state {state.name!r}", parse_actions, state.exit


def _render(node: ast.AST, prefix: str, java: bool) -> Tuple[str, int]:
    """``(C/Java source, precedence)``; bare statements (no effect) drop out."""
    if isinstance(node, ast.Module):
        body = [_render(s, prefix, java)[0] for s in node.body if isinstance(s, ast.Assign)]
        return "; ".join(body), 0
    if isinstance(node, ast.Assign):
        return f"{prefix}{node.targets[0].id} = {_render(node.value, prefix, java)[0]}", 0
    if isinstance(node, ast.Name):
        return prefix + node.id, _ATOM
    if isinstance(node, ast.Constant):
        return repr(node.value), _ATOM
    if isinstance(node, ast.Call):
        args = ", ".join(_render(a, prefix, java)[0] for a in node.args)
        return f"{_CALLS[node.func.id][3 if java else 2]}({args})", _ATOM
    if isinstance(node, ast.UnaryOp):
        token, prec = _OPS[type(node.op)][:2]
        return token + _operand(node.operand, prec + 1, prefix, java), prec
    if isinstance(node, ast.BoolOp):
        op, operands = node.op, node.values
    elif isinstance(node, ast.Compare):
        op, operands = node.ops[0], [node.left, *node.comparators]
    else:
        op, operands = node.op, [node.left, node.right]
    token, prec = _OPS[type(op)][:2]
    # Left-associative: only the first operand may share the precedence.
    parts = [_operand(operands[0], prec, prefix, java)]
    parts += [_operand(o, prec + 1, prefix, java) for o in operands[1:]]
    if isinstance(node, ast.BinOp) and all(map(_is_int, operands)):
        parts[0] = "(double)" + parts[0]  # C and Java divide ints as ints
    return f" {token} ".join(parts), prec


def _operand(node: ast.AST, at_least: int, prefix: str, java: bool) -> str:
    text, prec = _render(node, prefix, java)
    return text if prec >= at_least else f"({text})"


def _is_int(node: ast.AST) -> bool:
    """Whether C/Java type ``node`` as an int: a signed int literal."""
    while isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int
