"""The warm hit path of inline-XMI jobs: keyed on the text, parsed on a miss.

A job that carries its model as ``model_xmi`` is cached under the byte
key of that text (:func:`repro.parallel.fingerprint.xmi_cache_key`).  A
warm ``synthesize``, ``simulate`` or ``codegen`` job therefore never
parses its XMI, and still returns the cold job's artifact byte for byte.
"""

import pytest

from repro.apps import crane, didactic
from repro.core import flow
from repro.parallel import cache as pcache
from repro.parallel.fingerprint import synthesis_cache_key, xmi_cache_key
from repro.server import executor
from repro.server.executor import execute
from repro.server.jobs import JobSpec
from repro.uml import xmi as xmi_module
from repro.uml.xmi import to_xmi_string

#: Kinds whose back end needs only the synthesis result.
RESULT_ONLY_KINDS = {
    "synthesize": {"use_cache": True},
    "simulate": {"use_cache": True, "steps": 20, "stimuli": [{}, {}]},
    "codegen": {"use_cache": True, "languages": ["c", "java"]},
}

#: The normalized flow options of a ``synthesize`` job with no options.
FLOW_DEFAULTS = {
    "auto_allocate": False,
    "infer_channels": True,
    "insert_barriers": True,
    "layout": True,
    "validate": True,
    "strict": False,
    "name": None,
}


@pytest.fixture(autouse=True)
def private_cache():
    """An empty in-memory synthesis cache, restored afterwards."""
    state = pcache.snapshot()
    pcache.configure(enabled=True, directory=None)
    pcache.synthesis_cache().clear()
    try:
        yield pcache.synthesis_cache()
    finally:
        pcache.restore(state)


@pytest.fixture()
def parse_count(monkeypatch):
    """How many times ``from_xmi_string`` ran, under every name it has."""
    calls = []
    original = xmi_module.from_xmi_string

    def counting(text):
        calls.append(len(text))
        return original(text)

    for module in (xmi_module, flow, executor):
        monkeypatch.setattr(module, "from_xmi_string", counting)
    return calls


def xmi_spec(kind, model_xmi):
    options = RESULT_ONLY_KINDS.get(
        kind, {} if kind == "explore" else {"use_cache": True}
    )
    return JobSpec(kind=kind, model_xmi=model_xmi, options=options).validate()


@pytest.mark.parametrize("kind", sorted(RESULT_ONLY_KINDS))
def test_warm_job_never_parses_and_matches_cold(kind, parse_count):
    spec = xmi_spec(kind, to_xmi_string(crane.build_model()))
    cold = execute(spec)
    assert len(parse_count) == 1
    warm = execute(spec)
    assert len(parse_count) == 1
    assert warm.artifact_name == cold.artifact_name
    assert warm.artifact_text == cold.artifact_text
    cold.payload.pop("cache", None)
    assert warm.payload.pop("cache", {"status": "hit"})["status"] == "hit"
    assert warm.payload == cold.payload


def test_every_result_only_kind_shares_one_entry(parse_count, private_cache):
    text = to_xmi_string(didactic.build_model())
    for kind in sorted(RESULT_ONLY_KINDS):
        execute(xmi_spec(kind, text))
    assert len(parse_count) == 1
    assert len(private_cache) == 1


def test_synthesize_and_analyze_prime_exactly_two_entries(private_cache):
    text = to_xmi_string(didactic.build_model())
    execute(xmi_spec("synthesize", text))
    execute(xmi_spec("analyze", text))
    assert len(private_cache) == 2
    # Every other kind reuses those two; explore is not cached at all.
    for kind in ("codegen", "simulate", "analyze", "synthesize", "explore"):
        execute(xmi_spec(kind, text))
    assert len(private_cache) == 2


def test_analyze_still_parses_and_hits(parse_count):
    spec = xmi_spec("analyze", to_xmi_string(didactic.build_model()))
    cold = execute(spec)
    warm = execute(spec)
    assert len(parse_count) == 2  # its passes read the model
    assert warm.artifact_text == cold.artifact_text


def test_synthesize_payload_reports_byte_key_status():
    text = to_xmi_string(didactic.build_model())
    spec = xmi_spec("synthesize", text)
    key = xmi_cache_key(text, None, FLOW_DEFAULTS)
    assert execute(spec).payload["cache"] == {
        "status": "miss",
        "key": key[:16],
    }
    assert execute(spec).payload["cache"] == {"status": "hit", "key": key[:16]}


def test_layout_only_edit_is_a_second_entry(private_cache):
    text = to_xmi_string(didactic.build_model())
    edited = text.replace("\n  <uml:Model", "\n\n  <uml:Model", 1)
    first = execute(xmi_spec("synthesize", text))
    second = execute(xmi_spec("synthesize", edited))
    assert second.payload["cache"]["status"] == "miss"
    assert second.artifact_text == first.artifact_text
    assert len(private_cache) == 2


def test_demo_jobs_keep_the_structural_key():
    spec = JobSpec(
        kind="synthesize", demo="didactic", options={"use_cache": True}
    )
    execute(spec)
    warm = execute(spec)
    key = synthesis_cache_key(didactic.build_model(), None, FLOW_DEFAULTS)
    assert warm.payload["cache"] == {"status": "hit", "key": key[:16]}


@pytest.mark.parametrize("kind", sorted(RESULT_ONLY_KINDS))
def test_unparsable_xmi_is_a_flow_error(kind):
    with pytest.raises(flow.FlowError, match="cannot parse model_xmi"):
        execute(xmi_spec(kind, "<not-xmi"))


def test_analyze_of_unsynthesizable_xmi_reports_ra108():
    # The model parses but has neither deployment nor thread traffic, so
    # the flow fails and the analysis records why instead of failing.
    from repro.uml import ModelBuilder

    builder = ModelBuilder("lonely")
    builder.thread("T1")
    text = to_xmi_string(builder.build())
    outcome = execute(xmi_spec("analyze", text))
    assert "RA108" in outcome.payload["codes"]
