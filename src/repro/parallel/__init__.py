"""Content-addressed synthesis cache and the structural fingerprints it keys on.

:mod:`repro.parallel.cache` holds :class:`ContentCache`, an in-memory LRU
of pickled results with an optional on-disk store, keyed by the
structural fingerprints of :mod:`repro.parallel.fingerprint`.
:func:`repro.core.flow.synthesize` consults the process-wide synthesis
cache configured here (opt-in: :func:`configure_synthesis_cache`,
``REPRO_CACHE=1`` / ``REPRO_CACHE_DIR``, or the CLI ``--cache-dir``); a
cache hit is byte-identical to a cold run.

See ``docs/parallel.md`` for cache-key semantics and invalidation caveats.
"""

from .cache import (
    DEFAULT_CAPACITY,
    ContentCache,
    configure as configure_synthesis_cache,
    synthesis_cache,
)
from .fingerprint import (
    SCHEMA_VERSION,
    digest,
    model_fingerprint,
    options_fingerprint,
    plan_fingerprint,
    platform_fingerprint,
    synthesis_cache_key,
    taskgraph_fingerprint,
    xmi_cache_key,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "SCHEMA_VERSION",
    "ContentCache",
    "configure_synthesis_cache",
    "digest",
    "model_fingerprint",
    "options_fingerprint",
    "plan_fingerprint",
    "platform_fingerprint",
    "synthesis_cache",
    "synthesis_cache_key",
    "taskgraph_fingerprint",
    "xmi_cache_key",
]
