"""Unit tests for the analyzer-facing validators in ``tools/``."""

import json
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "..", "tools")
)
from validate_sarif import validate_sarif  # noqa: E402
from validate_sarif import main as sarif_main  # noqa: E402

from repro.analysis import AnalysisReport, make_diagnostic, to_sarif


def _sarif_document():
    report = AnalysisReport(subject="m")
    report.info["uri"] = "m.xmi"
    report.extend(
        [
            make_diagnostic("RA101", "no op", location="interaction 'main'"),
            make_diagnostic("RA203", "read early"),
        ],
        [],
    )
    return to_sarif([report])


class TestValidateSarif:
    def test_emitter_output_is_valid(self):
        assert validate_sarif(_sarif_document()) == 2

    def test_wrong_version(self):
        document = _sarif_document()
        document["version"] = "2.0.0"
        with pytest.raises(ValueError, match="version"):
            validate_sarif(document)

    def test_rule_index_mismatch(self):
        document = _sarif_document()
        document["runs"][0]["results"][0]["ruleIndex"] = 1
        with pytest.raises(ValueError, match="resolves to"):
            validate_sarif(document)

    def test_bad_level(self):
        document = _sarif_document()
        document["runs"][0]["results"][0]["level"] = "fatal"
        with pytest.raises(ValueError, match="bad level"):
            validate_sarif(document)

    def test_missing_logical_location(self):
        document = _sarif_document()
        del document["runs"][0]["results"][0]["locations"][0][
            "logicalLocations"
        ]
        with pytest.raises(ValueError, match="logicalLocations"):
            validate_sarif(document)

    def test_suppressions_validated(self):
        document = _sarif_document()
        document["runs"][0]["results"][0]["suppressions"] = [
            {"kind": "weird"}
        ]
        with pytest.raises(ValueError, match="suppression kind"):
            validate_sarif(document)

    def test_cli_min_results(self, tmp_path, capsys):
        path = tmp_path / "log.sarif"
        path.write_text(json.dumps(_sarif_document()))
        assert sarif_main([str(path), "--min-results", "2"]) == 0
        assert "valid SARIF 2.1.0" in capsys.readouterr().out
        assert sarif_main([str(path), "--min-results", "3"]) == 1
        assert "expected at least 3" in capsys.readouterr().err
