"""The CLI and the server share one job path.

``repro synthesize``, ``analyze`` and ``codegen --backend sdf`` build a
:class:`~repro.server.JobSpec` and run it through the server executor,
so every file they write must equal, byte for byte, what a server job
with the same spec returns.  Checked on the four case studies and a
slice of the generated zoo.
"""

import json
import os

import pytest

from repro.apps import DEMOS
from repro.cli import main
from repro.server import JobSpec
from repro.server.executor import execute
from repro.uml.xmi import write_xmi
from repro.zoo import generate_corpus

ZOO_SLICE = 6


def _models():
    for name, build in DEMOS.items():
        yield name, build()
    for scenario in generate_corpus(42, ZOO_SLICE):
        yield scenario.name, scenario.model


MODELS = dict(_models())


@pytest.fixture(params=sorted(MODELS))
def xmi(request, tmp_path):
    path = tmp_path / f"{request.param}.xmi"
    write_xmi(MODELS[request.param], str(path))
    return str(path)


def _job(kind, path, **options):
    with open(path, encoding="utf-8") as handle:
        spec = JobSpec(kind=kind, model_xmi=handle.read(), options=options)
    return execute(spec.validate())


@pytest.mark.parametrize(
    "flags, options",
    [([], {}), (["--auto-allocate"], {"auto_allocate": True})],
)
def test_synthesize_writes_the_served_mdl(xmi, tmp_path, flags, options):
    out = tmp_path / "out.mdl"
    assert main(["synthesize", xmi, "-o", str(out), *flags]) == 0
    served = _job("synthesize", xmi, **options)
    assert out.read_bytes() == served.artifact_text.encode("utf-8")


def test_sdf_codegen_writes_the_served_manifest_and_sources(xmi, tmp_path):
    out = tmp_path / "gen"
    argv = ["codegen", xmi, "--backend", "sdf", "-o", str(out)]
    assert main(argv + ["--lang", "c", "--lang", "java"]) == 0
    served = _job("codegen", xmi, languages=["c", "java"])
    manifest = out / "trace_manifest.json"
    assert manifest.read_bytes() == served.artifact_text.encode("utf-8")
    sources = served.payload["sources"]
    assert sorted(os.listdir(out)) == sorted([*sources, manifest.name])
    for filename, text in sources.items():
        assert (out / filename).read_bytes() == text.encode("utf-8")


def test_analyze_sarif_is_the_served_sarif_without_uri(xmi, tmp_path):
    out = tmp_path / "report.sarif"
    argv = ["analyze", xmi, "--format", "sarif", "-o", str(out)]
    assert main(argv) in (0, 1)  # 1: an error-severity finding
    written = json.loads(out.read_text(encoding="utf-8"))
    for result in written["runs"][0]["results"]:
        location = result["locations"][0]
        assert location.pop("physicalLocation") == {
            "artifactLocation": {"uri": xmi}
        }
    rewritten = json.dumps(written, indent=2, sort_keys=True) + "\n"
    assert rewritten == _job("analyze", xmi).artifact_text
