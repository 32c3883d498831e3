""""Synthesize the zoo" — end-to-end flow throughput on a generated corpus.

The zoo generator emits a fixed-seed corpus of full UML scenarios across
all families; this benchmark pushes every one through ``synthesize()``
twice — cold (cache disabled) and warm (content-addressed cache primed) —
and reports models/sec for both.  The corpus digest pins the workload.
"""

import time

import pytest

from repro.core import synthesize
from repro.parallel import cache
from repro.zoo import FAMILIES, build_manifest, generate_corpus

#: Fixed-seed corpus the "synthesize the zoo" benchmark runs.
ZOO_SEED = 42
ZOO_COUNT = 60


@pytest.fixture(scope="module")
def zoo_bench():
    """Time full-flow synthesis over the corpus, cold then warm cache.

    Generation is excluded from the timings, and synthesis runs *without*
    behaviors: attaching callables bypasses the content-addressed cache by
    design, and the structural flow is what is measured.
    """
    scenarios = list(generate_corpus(ZOO_SEED, ZOO_COUNT))
    state = cache.snapshot()
    try:
        cache.configure(enabled=False)
        start = time.perf_counter()
        cold_mdls = [
            synthesize(
                scenario.model,
                auto_allocate=scenario.params.auto_allocate,
            ).mdl_text
            for scenario in scenarios
        ]
        cold_s = time.perf_counter() - start

        cache.configure(enabled=True)
        for scenario in scenarios:  # populate
            synthesize(
                scenario.model,
                auto_allocate=scenario.params.auto_allocate,
            )
        hits = 0
        warm_mdls = []
        start = time.perf_counter()
        for scenario in scenarios:
            result = synthesize(
                scenario.model,
                auto_allocate=scenario.params.auto_allocate,
            )
            warm_mdls.append(result.mdl_text)
            status = result.obs.parallel.get("cache", {}).get("status")
            hits += 1 if status == "hit" else 0
        warm_s = time.perf_counter() - start
    finally:
        cache.restore(state)

    return {
        "seed": ZOO_SEED,
        "models": ZOO_COUNT,
        "families": list(FAMILIES),
        "corpus_digest": build_manifest(ZOO_SEED, ZOO_COUNT)["corpus_digest"],
        "models_per_sec_cold": ZOO_COUNT / cold_s,
        "models_per_sec_warm": ZOO_COUNT / warm_s,
        "cache_speedup": cold_s / warm_s,
        "warm_hit_rate": hits / ZOO_COUNT,
        "artifacts_identical": warm_mdls == cold_mdls,
    }


def test_synthesize_the_zoo(zoo_bench, paper_report):
    stats = zoo_bench
    assert stats["seed"] == ZOO_SEED
    assert stats["models"] == ZOO_COUNT
    # Warm artifacts must be byte-identical to cold ones — the cache is
    # an optimization, not a re-specification of the flow.
    assert stats["artifacts_identical"]
    # Nothing in the corpus fingerprints ambiguously: every warm
    # synthesis is a cache hit.
    assert stats["warm_hit_rate"] == 1.0
    assert stats["models_per_sec_cold"] > 0
    assert stats["models_per_sec_warm"] > stats["models_per_sec_cold"]

    paper_report(
        f"E6: synthesize the zoo ({ZOO_COUNT} models, seed {ZOO_SEED})",
        [
            ("families", "6", f"{len(stats['families'])}"),
            (
                "cold flow",
                "full map+optimize+mdl",
                f"{stats['models_per_sec_cold']:.0f} models/s",
            ),
            (
                "warm flow",
                "cache hits",
                f"{stats['models_per_sec_warm']:.0f} models/s",
            ),
            ("warm hit rate", "100%", f"{stats['warm_hit_rate']:.0%}"),
            ("cache speedup", ">=1x", f"{stats['cache_speedup']:.2f}x"),
            ("corpus digest", "pinned", stats["corpus_digest"][:12]),
        ],
    )
