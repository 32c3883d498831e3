"""Retry policy: exponential backoff with jitter, transient-only.

The classification side leans on the error taxonomy of
:mod:`repro.core.flow`: a deterministic :class:`~repro.core.flow.FlowError`
(a bad model, an impossible allocation, a strict-mode escalation) will
fail identically on every attempt and is **never** retried; substrate
failures — a cache or journal I/O error, a
:class:`~repro.core.flow.TransientFlowError` — are retried up to
``max_retries`` times with exponentially growing, jittered delays.

Jitter exists to de-synchronize retry storms when many jobs fail at once
(e.g. a shared cache directory going away); tests that need determinism
construct the policy with ``jitter=0``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.flow import is_transient


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule + the transient/deterministic classifier."""

    #: Retries after the first attempt (2 = up to 3 executions total).
    max_retries: int = 2
    #: Delay before the first retry; doubles each further retry.
    base_delay_s: float = 0.1
    #: Backoff ceiling.
    max_delay_s: float = 5.0
    #: Fractional jitter: each delay is scaled by ``1 ± jitter``.
    jitter: float = 0.2

    def classify(self, exc: BaseException) -> bool:
        """Whether ``exc`` is transient (see :func:`repro.core.flow.is_transient`)."""
        return is_transient(exc)

    def should_retry(self, exc: BaseException, attempts: int) -> bool:
        """Whether a job that failed with ``exc`` on attempt number
        ``attempts`` (1-based) deserves another execution."""
        return attempts <= self.max_retries and self.classify(exc)

    def delay_for(self, attempts: int) -> float:
        """Seconds to wait before the retry following attempt ``attempts``."""
        exponent = max(0, attempts - 1)
        delay = min(self.max_delay_s, self.base_delay_s * (2.0 ** exponent))
        if self.jitter:
            delay *= 1.0 + random.uniform(-self.jitter, self.jitter)
        return max(0.0, delay)
