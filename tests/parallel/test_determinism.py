"""Determinism properties of the content-addressed synthesis cache.

The cache must be *observationally invisible*: for the same model and flow
options, a warm-cache run, a cold-cache run and a cache-off run all hand
back the same ``mdl_text`` and the same mapping report.  Conversely the
cache key must be *sensitive*: changing any flow option or any model
element changes the key, so stale artifacts can never be served.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.apps import crane, didactic, mjpeg, synthetic
from repro.core.flow import synthesize
from repro.parallel import cache
from repro.parallel.fingerprint import (
    SCHEMA_VERSION,
    options_fingerprint,
    plan_fingerprint,
    synthesis_cache_key,
)
from repro.uml import ModelBuilder
from repro.uml.xmi import to_xmi_string
from repro.zoo import generate_corpus

#: The flow options that participate in the cache key, with a non-default
#: value for each (``synthesize``'s keyword defaults flipped).
OPTION_VARIANTS = {
    "auto_allocate": True,
    "infer_channels": False,
    "insert_barriers": False,
    "layout": False,
    "validate": False,
    "strict": True,
    "name": "renamed",
}


def small_model(threads=2, name="prop", names=None, arg="v"):
    b = ModelBuilder(name)
    names = names or [f"T{i}" for i in range(1, threads + 1)]
    for t in names:
        b.thread(t)
    b.io_device("Dev")
    b.processor("CPU1", threads=names)
    sd = b.interaction("main")
    sd.call(names[0], "Dev", "read", result=arg)
    for prev, cur in zip(names, names[1:]):
        sd.call(prev, cur, "push", args=[arg])
    sd.call(names[-1], "Dev", "write", args=[arg])
    return b.build()


class TestCacheTransparency:
    def test_cold_then_warm_identical(self):
        cache.configure(enabled=True)
        model = didactic.build_model()
        cold = synthesize(model)
        warm = synthesize(didactic.build_model())
        assert cold.obs.parallel["cache"]["status"] == "miss"
        assert warm.obs.parallel["cache"]["status"] == "hit"
        assert warm.mdl_text == cold.mdl_text
        assert warm.mapping_report() == cold.mapping_report()
        assert warm.intermediate_xml == cold.intermediate_xml

    def test_cache_on_vs_off_identical(self):
        model = didactic.build_model()
        off = synthesize(model, use_cache=False)
        assert "cache" not in off.obs.parallel
        cache.configure(enabled=True)
        on = synthesize(didactic.build_model())
        assert on.mdl_text == off.mdl_text
        assert on.mapping_report() == off.mapping_report()

    def test_hit_returns_fresh_copy(self):
        cache.configure(enabled=True)
        first = synthesize(didactic.build_model())
        second = synthesize(didactic.build_model())
        assert second is not first
        assert second.caam is not first.caam
        # Mutating one hit must not poison the next.
        second.caam.name = "mutated"
        third = synthesize(didactic.build_model())
        assert third.caam.name == first.caam.name

    def test_use_cache_true_overrides_disabled_config(self):
        cache.configure(enabled=False)
        synthesize(didactic.build_model(), use_cache=True)
        warm = synthesize(didactic.build_model(), use_cache=True)
        assert warm.obs.parallel["cache"]["status"] == "hit"

    def test_behaviors_bypass_the_cache(self):
        cache.configure(enabled=True)
        result = synthesize(
            didactic.build_model(), behaviors=didactic.behaviors()
        )
        assert result.obs.parallel["cache"] == {
            "status": "bypass",
            "reason": "behaviors",
        }

    def test_zoo_corpus_warm_pass_hits_and_matches_cold(self):
        # Two corpus models per family: a warm pass over a primed cache
        # hits on every model and prints the cache-off .mdl byte for byte.
        scenarios = list(generate_corpus(42, 12))

        def run_all():
            return [
                synthesize(
                    scenario.model,
                    auto_allocate=scenario.params.auto_allocate,
                )
                for scenario in scenarios
            ]

        cache.configure(enabled=False)
        cold = run_all()
        cache.configure(enabled=True)
        run_all()  # populate
        warm = run_all()
        assert [r.obs.parallel["cache"]["status"] for r in warm] == [
            "hit"
        ] * len(scenarios)
        assert [r.mdl_text for r in warm] == [r.mdl_text for r in cold]

    @settings(max_examples=8, deadline=None)
    @given(threads=st.integers(min_value=1, max_value=4))
    def test_random_models_cold_vs_warm(self, threads):
        state = cache.snapshot()
        try:
            cache.configure(enabled=True)
            cold = synthesize(small_model(threads))
            warm = synthesize(small_model(threads))
            assert warm.obs.parallel["cache"]["status"] == "hit"
            assert warm.mdl_text == cold.mdl_text
            assert warm.mapping_report() == cold.mapping_report()
        finally:
            cache.restore(state)


class TestKeySensitivity:
    def test_key_is_stable_across_rebuilds(self):
        key_a = synthesis_cache_key(didactic.build_model(), None, {})
        key_b = synthesis_cache_key(didactic.build_model(), None, {})
        assert key_a == key_b

    @pytest.mark.parametrize("option", sorted(OPTION_VARIANTS))
    def test_key_changes_with_each_flow_option(self, option):
        model = didactic.build_model()
        base_options = {
            "auto_allocate": False,
            "infer_channels": True,
            "insert_barriers": True,
            "layout": True,
            "validate": True,
            "strict": False,
            "name": None,
        }
        changed = dict(base_options, **{option: OPTION_VARIANTS[option]})
        assert synthesis_cache_key(
            model, None, base_options
        ) != synthesis_cache_key(model, None, changed)

    def test_key_changes_with_model_elements(self):
        base = synthesis_cache_key(small_model(2), None, {})
        assert synthesis_cache_key(small_model(3), None, {}) != base
        assert (
            synthesis_cache_key(small_model(2, name="other"), None, {}) != base
        )

    def test_key_changes_with_explicit_plan(self):
        model = didactic.build_model()
        from repro.uml import DeploymentPlan

        one_cpu = DeploymentPlan.from_mapping(
            {"T1": "CPU1", "T2": "CPU1", "T3": "CPU1"}
        )
        two_cpu = DeploymentPlan.from_mapping(
            {"T1": "CPU1", "T2": "CPU1", "T3": "CPU2"}
        )
        keys = {
            synthesis_cache_key(model, None, {}),
            synthesis_cache_key(model, one_cpu, {}),
            synthesis_cache_key(model, two_cpu, {}),
        }
        assert len(keys) == 3

    def test_plan_fingerprint_distinguishes_none(self):
        from repro.uml import DeploymentPlan

        plan = DeploymentPlan.from_mapping({"T1": "CPU1"})
        assert plan_fingerprint(None) != plan_fingerprint(plan)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.dictionaries(
            st.sampled_from(sorted(OPTION_VARIANTS)),
            st.one_of(st.booleans(), st.text(max_size=4)),
            max_size=4,
        ),
        b=st.dictionaries(
            st.sampled_from(sorted(OPTION_VARIANTS)),
            st.one_of(st.booleans(), st.text(max_size=4)),
            max_size=4,
        ),
    )
    def test_options_fingerprint_injective_on_dicts(self, a, b):
        if a == b:
            assert options_fingerprint(a) == options_fingerprint(b)
        else:
            assert options_fingerprint(a) != options_fingerprint(b)

    def test_schema_version_bump_invalidates_keys(self, monkeypatch):
        # Bumping SCHEMA_VERSION must invalidate every stored key.
        from repro.parallel import fingerprint

        model = small_model(1)
        before = synthesis_cache_key(model, None, {})
        monkeypatch.setattr(
            fingerprint, "SCHEMA_VERSION", SCHEMA_VERSION + "-test"
        )
        assert synthesis_cache_key(model, None, {}) != before


class TestKeyPartition:
    """The key partitions models exactly as their canonical XMI does."""

    def test_keys_equal_iff_xmi_equal(self):
        models = [scenario.model for scenario in generate_corpus(42, 100)]
        for app in (crane, didactic, mjpeg, synthetic):
            # Built twice: equal pairs must share a key, too.
            models += [app.build_model(), app.build_model()]
        key_by_xmi = {}
        xmi_by_key = {}
        for model in models:
            xmi = to_xmi_string(model)
            key = synthesis_cache_key(model, None, {})
            assert key_by_xmi.setdefault(xmi, key) == key
            assert xmi_by_key.setdefault(key, xmi) == xmi
        assert len(key_by_xmi) == len(models) - 4

    def test_key_is_identical_in_fresh_processes(self):
        script = (
            "from repro.apps import crane\n"
            "from repro.parallel.fingerprint import synthesis_cache_key\n"
            "print(synthesis_cache_key(crane.build_model(), None, {}))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        keys = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            )
            keys.append(done.stdout.strip())
        assert keys[0] == keys[1]
        assert keys[0] == synthesis_cache_key(crane.build_model(), None, {})

    @pytest.mark.parametrize("mark", [":", "(", ")", "|", "\n", "\r\n", "\u00e9"])
    def test_delimiters_in_values_keep_keys_distinct(self, mark):
        variants = [
            small_model(names=["A" + mark, "B"]),
            small_model(names=["A", mark + "B"]),
            small_model(names=["A" + mark + "B"]),
            small_model(names=["A", "B"], arg="v" + mark),
            small_model(names=["A", "B"], arg=mark + "v"),
            small_model(names=["A", "B"], name="prop" + mark),
            small_model(names=["A", "B"]),
        ]
        xmis = {to_xmi_string(model) for model in variants}
        keys = {synthesis_cache_key(model, None, {}) for model in variants}
        assert len(xmis) == len(variants)
        assert len(keys) == len(variants)
