"""Diagnostic model of the static analyzer.

Every analysis pass reports :class:`Diagnostic` records: a **stable
code** (``RA1xx`` structure, ``RA2xx`` channels/concurrency, ``RA3xx``
FSM, ``RA4xx`` dataflow/SDF), a severity, a human message, the XMI ids
of the offending elements, and an optional fix hint.  Codes are part of
the public contract — tests, suppressions, SARIF rules, and the zoo's
pathological-kind mapping all key on them — so a code is never reused
for a different check (see ``docs/analysis.md``).

:class:`AnalysisReport` aggregates the diagnostics of one analyzer run
with per-pass metadata (e.g. the SDF pass publishes its repetition
vector under ``info["sdf"]``) and renders to text, JSON, or SARIF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Severity names, least to most severe.
SEVERITIES = ("note", "warning", "error")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


class AnalysisError(Exception):
    """Raised on invalid analyzer configuration (bad severity, pass name)."""


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity (``note`` < ``warning`` < ``error``)."""
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise AnalysisError(
            f"unknown severity {severity!r}; expected one of {SEVERITIES}"
        ) from None


#: code -> (default severity, one-line rule description).  This is the
#: single registry behind ``docs/analysis.md`` and the SARIF rule table.
CODES: Dict[str, Tuple[str, str]] = {
    # -- RA1xx: structural well-formedness (UML front-end) ------------------
    "RA100": ("error", "model fails a structural well-formedness check"),
    "RA101": ("error", "message names an operation its receiver lacks"),
    "RA102": ("error", "message argument count does not match the operation"),
    "RA103": ("error", "receiver lifeline has no instance"),
    "RA104": ("error", "stereotype applied to an inapplicable element"),
    "RA105": ("warning", "operation body names a missing behaviour interaction"),
    "RA106": ("error", "thread is not deployed on any <<SAengine>> node"),
    "RA107": ("warning", "Set/Get naming used on a non-thread, non-IO receiver"),
    "RA108": ("warning", "model could not be synthesized; CAAM passes skipped"),
    # -- RA2xx: channel protocol and concurrency ----------------------------
    "RA201": ("warning", "channel is read but never written (dangling get)"),
    "RA202": ("warning", "cyclic inter-thread channel path (mutually blocking FIFOs)"),
    "RA203": ("warning", "variable read before any producer in its diagram"),
    "RA204": ("warning", "channel written by concurrent unsynchronized threads"),
    # -- RA3xx: state machines ----------------------------------------------
    "RA301": ("warning", "state is unreachable from the initial state"),
    "RA302": ("warning", "transition can never fire (shadowed by an earlier one)"),
    "RA303": ("warning", "syntactically overlapping guards on one source state"),
    "RA304": ("note", "declared variable is never read by any guard or action"),
    "RA305": ("error", "state machine has no initial state"),
    "RA306": ("error", "guard or action text is outside the FSM expression language"),
    # -- RA4xx: dataflow and SDF --------------------------------------------
    "RA401": ("error", "SDF balance equations are inconsistent (rate mismatch)"),
    "RA402": ("error", "SDF graph deadlocks (insufficient initial tokens)"),
    "RA403": ("error", "block input port is driven by no signal"),
    "RA404": ("warning", "block output reaches no Scope, Outport or sink"),
    "RA405": ("note", "signal is statically constant (foldable subgraph)"),
    "RA406": ("note", "SDF repetition vector too large; buffer bounds skipped"),
}


def code_severity(code: str) -> str:
    """The documented default severity of a diagnostic code."""
    try:
        return CODES[code][0]
    except KeyError:
        raise AnalysisError(f"unknown diagnostic code {code!r}") from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass."""

    code: str
    severity: str
    message: str
    location: str = ""
    element_ids: Tuple[str, ...] = ()
    fix_hint: str = ""

    def __str__(self) -> str:
        return f"{self.code} [{self.severity}] {self.location}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """Render as a JSON-ready dict (empty fields omitted)."""
        doc: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
        }
        if self.element_ids:
            doc["element_ids"] = list(self.element_ids)
        if self.fix_hint:
            doc["fix_hint"] = self.fix_hint
        return doc


def make_diagnostic(
    code: str,
    message: str,
    *,
    location: str = "",
    element_ids: Sequence[str] = (),
    fix_hint: str = "",
    severity: Optional[str] = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting severity from :data:`CODES`."""
    resolved = severity if severity is not None else code_severity(code)
    severity_rank(resolved)  # validate
    return Diagnostic(
        code=code,
        severity=resolved,
        message=message,
        location=location,
        element_ids=tuple(i for i in element_ids if i),
        fix_hint=fix_hint,
    )


def is_suppressed(code: str, patterns: Sequence[str]) -> bool:
    """Whether ``code`` matches any suppression pattern.

    Patterns are exact codes (``RA203``), family wildcards (``RA2xx``),
    or prefix globs (``RA2*``); matching is case-insensitive.
    """
    code = code.upper()
    for pattern in patterns:
        pattern = pattern.strip().upper()
        if not pattern:
            continue
        if pattern == code:
            return True
        if pattern.endswith("XX") and code.startswith(pattern[:-2]):
            return True
        if pattern.endswith("*") and code.startswith(pattern[:-1]):
            return True
    return False


@dataclass
class AnalysisReport:
    """Everything one analyzer run produced."""

    subject: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Findings filtered out by suppression patterns (kept for the record;
    #: SARIF marks them ``suppressions``, JSON lists them separately).
    suppressed: List[Diagnostic] = field(default_factory=list)
    #: Pass names that ran, in order.
    passes: List[str] = field(default_factory=list)
    #: Per-pass structured results (``info["sdf"]`` → repetition vector,
    #: buffer bounds; ``info["dataflow"]`` → constant/dead counts ...).
    info: Dict[str, Any] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        """Active findings per severity (suppressed ones excluded)."""
        totals = {name: 0 for name in SEVERITIES}
        for diagnostic in self.diagnostics:
            totals[diagnostic.severity] += 1
        return totals

    def codes(self) -> List[str]:
        """Sorted distinct codes among the active findings."""
        return sorted({d.code for d in self.diagnostics})

    def max_severity(self) -> Optional[str]:
        """The most severe active finding's severity, or ``None`` if clean."""
        if not self.diagnostics:
            return None
        return max(
            (d.severity for d in self.diagnostics), key=severity_rank
        )

    def at_or_above(self, severity: str) -> List[Diagnostic]:
        """Active findings at or above ``severity``."""
        floor = severity_rank(severity)
        return [
            d for d in self.diagnostics if severity_rank(d.severity) >= floor
        ]

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def extend(
        self, diagnostics: Iterable[Diagnostic], patterns: Sequence[str] = ()
    ) -> None:
        """Add findings, routing suppressed codes to :attr:`suppressed`."""
        for diagnostic in diagnostics:
            if patterns and is_suppressed(diagnostic.code, patterns):
                self.suppressed.append(diagnostic)
            else:
                self.diagnostics.append(diagnostic)

    def render_text(self) -> str:
        """Human-readable listing: one line per finding plus a summary."""
        lines = [
            f"{self.subject}: {diagnostic}" for diagnostic in self.diagnostics
        ]
        totals = self.counts()
        summary = (
            f"{self.subject}: {totals['error']} error(s), "
            f"{totals['warning']} warning(s), {totals['note']} note(s)"
        )
        if self.suppressed:
            summary += f", {len(self.suppressed)} suppressed"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """A JSON-ready document (the ``--format json`` payload)."""
        return {
            "subject": self.subject,
            "passes": list(self.passes),
            "counts": self.counts(),
            "codes": self.codes(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [d.to_dict() for d in self.suppressed],
            "info": self.info,
        }

    def to_sarif(self) -> Dict[str, Any]:
        """A single-run SARIF 2.1.0 log for this report."""
        from .sarif import to_sarif

        return to_sarif([self])
