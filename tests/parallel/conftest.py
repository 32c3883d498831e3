"""Shared fixtures: every test here runs with an isolated cache config."""

import pytest

from repro.parallel import cache


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch):
    """Scope the process-wide synthesis cache to the test.

    Clears the cache environment variables, resets the configuration to
    its environment-driven default, and restores whatever state the test
    session had afterwards — tests can flip the cache on and off freely
    without leaking into the rest of the suite.
    """
    for var in ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_NO_CACHE"):
        monkeypatch.delenv(var, raising=False)
    state = cache.snapshot()
    cache.configure(enabled=None, directory=None)
    yield
    cache.restore(state)
