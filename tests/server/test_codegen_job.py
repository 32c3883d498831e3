"""The ``codegen`` job kind: spec validation and executor output."""

import json

import pytest

from repro.server import JobSpec, SpecError
from repro.server.executor import execute

pytestmark = pytest.mark.codegen


class TestSpecValidation:
    def test_codegen_kind_admitted(self):
        spec = JobSpec(
            kind="codegen", demo="crane", options={"languages": ["c", "java"]}
        )
        assert spec.validate() is spec

    def test_unknown_option_rejected(self):
        with pytest.raises(SpecError, match="unknown codegen option"):
            JobSpec(
                kind="codegen", demo="crane", options={"steps": 5}
            ).validate()

    def test_round_trips_through_json(self):
        spec = JobSpec(
            kind="codegen", demo="crane", options={"languages": ["c"]}
        )
        assert JobSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestExecution:
    def test_manifest_artifact_and_payload(self):
        spec = JobSpec(
            kind="codegen", demo="crane", options={"languages": ["c", "java"]}
        )
        outcome = execute(spec)
        assert outcome.artifact_name == "crane.trace_manifest.json"
        manifest = json.loads(outcome.artifact_text)
        assert manifest["schema"] == "repro.codegen.trace/1"
        payload = outcome.payload
        assert payload["model"] == "crane"
        assert payload["languages"] == ["c", "java"]
        assert payload["schedule"]["pes"] == 3
        assert set(payload["sources"]) == {
            "crane.c",
            "crane.h",
            "CraneSchedule.java",
        }
        # inline sources hash-match the manifest the client downloads
        import hashlib

        for filename, digest in payload["artifact_hashes"].items():
            actual = hashlib.sha256(
                payload["sources"][filename].encode()
            ).hexdigest()
            assert actual == digest
        assert payload["requirements"] == ["REQ-CRANE-001"]

    def test_default_language_is_c(self):
        outcome = execute(JobSpec(kind="codegen", demo="crane"))
        assert sorted(outcome.payload["sources"]) == ["crane.c", "crane.h"]

    def test_bad_languages_option_fails_cleanly(self):
        from repro.server import SpecError

        with pytest.raises(SpecError, match="unknown codegen language"):
            JobSpec(
                kind="codegen",
                demo="crane",
                options={"languages": ["cobol"]},
            ).validate()
        with pytest.raises(SpecError, match="non-empty list"):
            JobSpec(
                kind="codegen", demo="crane", options={"languages": []}
            ).validate()
