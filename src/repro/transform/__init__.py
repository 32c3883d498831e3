"""Model-transformation substrate: rule engine and trace links.

Replaces the paper's smartQVT/ATL dependency with an explicit rule-based
model-to-model engine (:mod:`.engine`) and trace-link storage
(:mod:`.trace`).  Model-to-text output is printed by each backend
directly, as plain Python line lists.
"""

from .engine import Rule, Transformation, TransformationContext, TransformationError
from .trace import TraceError, TraceLink, TraceStore

__all__ = [
    "Rule",
    "TraceError",
    "TraceLink",
    "TraceStore",
    "Transformation",
    "TransformationContext",
    "TransformationError",
]
