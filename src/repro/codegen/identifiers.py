"""Identifier sanitization shared by every source-emitting backend.

Model element names are free-form UML strings (spaces, hyphens, unicode)
while C and Java demand ``[A-Za-z_][A-Za-z0-9_]*``.  Historically each
emitter rolled its own mangling (or none: FSM machine names used to pass
through verbatim and a machine called ``"lift controller"`` produced an
invalid ``lift controller_state_t`` typedef).  This module is the single
place the mapping lives:

- :func:`sanitize` — deterministic name → identifier mangling;
- :class:`SymbolTable` — collision-free allocation (two distinct names
  that mangle identically get stable numeric suffixes);
- :func:`camel` — CamelCase for Java type names;
- :func:`header_guard` — the ``REPRO_<NAME>_H`` include-guard macro.
"""

from __future__ import annotations

import re
from typing import Dict

_INVALID_RE = re.compile(r"[^A-Za-z0-9_]+")

#: Words no emitted symbol may collide with (C99 + a few common POSIX
#: and Java clashes; lowercase comparison).
RESERVED = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    main abstract boolean byte class final implements import instanceof
    interface native new null package private protected public static
    strictfp super synchronized this throw throws transient try
    """.split()
)


def sanitize(name: str, fallback: str = "id") -> str:
    """Mangle ``name`` into a valid C/Java identifier, deterministically.

    Runs of invalid characters collapse to one underscore; a leading
    digit gets an underscore prefix; empty results fall back to
    ``fallback``; reserved words get an underscore suffix.
    """
    mangled = _INVALID_RE.sub("_", name.strip()).strip("_")
    if not mangled:
        mangled = fallback
    if mangled[0].isdigit():
        mangled = "_" + mangled
    if mangled.lower() in RESERVED:
        mangled += "_"
    return mangled


def camel(name: str) -> str:
    """CamelCase form for Java class names (``lift-ctrl 2`` → ``LiftCtrl2``)."""
    parts = [p for p in re.split(r"[_\W]+", name) if p]
    if not parts:
        return "Model"
    result = "".join(part[:1].upper() + part[1:] for part in parts)
    return result if not result[0].isdigit() else "M" + result


def header_guard(name: str) -> str:
    """The include-guard macro for a generated header (``REPRO_X_H``)."""
    return f"REPRO_{sanitize(name).upper()}_H"


class SymbolTable:
    """Allocate unique identifiers for free-form names.

    The same input name always returns the same symbol; two distinct
    names whose sanitized forms collide are disambiguated with ``_2``,
    ``_3``, ... in first-come order — deterministic because callers walk
    model elements in schedule order.
    """

    def __init__(self, prefix: str = "") -> None:
        self._prefix = prefix
        self._by_name: Dict[str, str] = {}
        self._taken: Dict[str, int] = {}

    def symbol(self, name: str) -> str:
        """The unique identifier assigned to ``name``."""
        known = self._by_name.get(name)
        if known is not None:
            return known
        base = self._prefix + sanitize(name)
        count = self._taken.get(base, 0)
        self._taken[base] = count + 1
        symbol = base if count == 0 else f"{base}_{count + 1}"
        self._by_name[name] = symbol
        return symbol
