"""Extension experiment E5 — the content-addressed synthesis cache.

Measures cold- vs warm-cache ``synthesize()`` on the crane case study,
asserting the warm run returns the same artifact, and checks that the
on-disk store survives a fresh cache instance.
"""

import os
import time

from repro.apps import crane
from repro.core import synthesize
from repro.parallel import cache


def test_warm_cache_synthesize(paper_report):
    state = cache.snapshot()
    try:
        cache.configure(enabled=True)
        model = crane.build_model()

        start = time.perf_counter()
        cold = synthesize(model)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        warm = synthesize(crane.build_model())
        warm_s = time.perf_counter() - start
    finally:
        cache.restore(state)

    assert warm.obs.parallel["cache"]["status"] == "hit"
    assert warm.mdl_text == cold.mdl_text
    assert warm_s < cold_s
    speedup = cold_s / warm_s if warm_s else 0.0
    paper_report(
        "E5b: content-addressed synthesis cache (crane)",
        [
            ("cold synthesize", "full flow", f"{cold_s * 1e3:.2f} ms"),
            ("warm synthesize", "cache hit", f"{warm_s * 1e3:.2f} ms"),
            ("speedup", ">=5x", f"{speedup:.1f}x"),
        ],
    )


def test_disk_cache_survives_instances(tmp_path, paper_report):
    directory = str(tmp_path / "cache")
    state = cache.snapshot()
    try:
        cache.configure(enabled=True, directory=directory)
        cold = synthesize(crane.build_model())
        # A fresh instance with cold memory must hit the disk store.
        cache.configure(enabled=True, directory=directory)
        start = time.perf_counter()
        warm = synthesize(crane.build_model())
        disk_s = time.perf_counter() - start
    finally:
        cache.restore(state)

    assert warm.obs.parallel["cache"]["status"] == "hit"
    assert warm.mdl_text == cold.mdl_text
    entries = len(os.listdir(directory))
    paper_report(
        "E5c: on-disk synthesis cache (crane)",
        [
            ("disk entries", ">=1", f"{entries}"),
            ("disk-warm synthesize", "pickle load", f"{disk_s * 1e3:.2f} ms"),
        ],
    )
