"""The ``analyze`` job kind: spec validation and served SARIF artifact."""

import json

import pytest

from repro.server import JobSpec, SpecError
from repro.server.executor import execute
from repro.server.jobs import ANALYZE_OPTIONS, KINDS


class TestSpecValidation:
    def test_analyze_is_a_kind(self):
        assert "analyze" in KINDS

    def test_analyze_kind_admitted(self):
        spec = JobSpec(
            kind="analyze",
            demo="didactic",
            options={"suppress": ["RA404"], "passes": ["structure"]},
        )
        assert spec.validate() is spec

    def test_option_set_documented(self):
        assert ANALYZE_OPTIONS == {
            "passes",
            "suppress",
            "require_deployment",
            "use_cache",
        }

    def test_unknown_option_rejected(self):
        with pytest.raises(SpecError) as excinfo:
            JobSpec(
                kind="analyze", demo="didactic", options={"surpress": []}
            ).validate()
        assert "'surpress'" in str(excinfo.value)


class TestExecutorValidation:
    """The executor's option values are checked once, at admission."""

    def test_bad_suppress_type(self):
        spec = JobSpec(
            kind="analyze", demo="didactic", options={"suppress": "RA404"}
        )
        with pytest.raises(SpecError, match="suppress"):
            spec.validate()

    def test_unknown_pass_name(self):
        spec = JobSpec(
            kind="analyze", demo="didactic", options={"passes": ["nope"]}
        )
        with pytest.raises(SpecError, match="unknown analysis pass"):
            spec.validate()


class TestExecution:
    def test_didactic_payload_and_sarif_artifact(self):
        outcome = execute(JobSpec(kind="analyze", demo="didactic"))
        assert outcome.artifact_name == "didactic.sarif"
        payload = outcome.payload
        assert payload["model"] == "didactic"
        assert payload["codes"] == ["RA404"]
        assert payload["max_severity"] == "warning"
        assert payload["counts"]["warning"] == 2
        assert payload["sdf"]["consistent"] is True
        doc = json.loads(outcome.artifact_text)
        assert doc["version"] == "2.1.0"
        assert len(doc["runs"][0]["results"]) == 2

    def test_suppression_is_counted_and_marked(self):
        outcome = execute(
            JobSpec(
                kind="analyze",
                demo="didactic",
                options={"suppress": ["RA4xx"]},
            )
        )
        assert outcome.payload["codes"] == []
        assert outcome.payload["suppressed"] == 2
        doc = json.loads(outcome.artifact_text)
        for result in doc["runs"][0]["results"]:
            assert result["suppressions"] == [{"kind": "external"}]

    def test_pass_subset(self):
        outcome = execute(
            JobSpec(
                kind="analyze",
                demo="didactic",
                options={"passes": ["structure", "channels"]},
            )
        )
        assert outcome.payload["passes"] == ["structure", "channels"]
        assert outcome.payload["codes"] == []
        assert outcome.payload["sdf"] == {}
