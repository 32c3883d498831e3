"""Unit tests for the new validators in ``tools/validate_trace.py``."""

import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "..", "tools")
)
from validate_trace import (  # noqa: E402
    main,
    validate_slo,
    validate_span_tree,
)


def event(name, id, parent=None):
    args = {} if parent is None else {"parent_id": parent}
    return {
        "ph": "X",
        "name": name,
        "id": id,
        "ts": 0,
        "dur": 1,
        "pid": 1,
        "tid": 1,
        "args": args,
    }


def slo_document(**overrides):
    record = {
        "target": "jobs",
        "objective": "availability",
        "target_value": 99.0,
        "observed": 100.0,
        "events": 10,
        "errors": 0,
        "attainment_pct": 100.0,
        "budget_remaining_pct": 100.0,
        "burn_rate": 0.0,
        "risk": "ok",
    }
    record.update(overrides.pop("record", {}))
    document = {
        "window_s": 300.0,
        "risk": "ok",
        "targets": [{"name": "jobs"}],
        "records": [record],
    }
    document.update(overrides)
    return document


class TestSpanTree:
    def test_single_rooted_tree_passes(self):
        document = {
            "traceEvents": [
                event("root", 1),
                event("child", 2, parent=1),
                event("grandchild", 3, parent=2),
            ]
        }
        validate_span_tree(document)

    def test_orphan_parent_rejected(self):
        document = {
            "traceEvents": [event("root", 1), event("lost", 2, parent=99)]
        }
        with pytest.raises(ValueError, match="orphaned subtree"):
            validate_span_tree(document)

    def test_multiple_roots_rejected(self):
        document = {"traceEvents": [event("a", 1), event("b", 2)]}
        with pytest.raises(ValueError, match="exactly one root"):
            validate_span_tree(document)

    def test_metadata_events_ignored(self):
        document = {
            "traceEvents": [
                {"ph": "M", "name": "process_name", "args": {}},
                event("root", 1),
            ]
        }
        validate_span_tree(document)


class TestSloValidator:
    def test_valid_document_passes(self):
        validate_slo(slo_document())

    def test_missing_field_rejected(self):
        document = slo_document()
        del document["records"]
        with pytest.raises(ValueError, match="records"):
            validate_slo(document)

    def test_undeclared_target_rejected(self):
        document = slo_document(record={"target": "ghost"})
        with pytest.raises(ValueError, match="undeclared target"):
            validate_slo(document)

    def test_overall_risk_must_match_worst_record(self):
        document = slo_document(
            record={"risk": "breach", "burn_rate": 2.0,
                    "budget_remaining_pct": 0.0}
        )
        with pytest.raises(ValueError, match="worst"):
            validate_slo(document)
        document["risk"] = "breach"
        validate_slo(document)

    def test_burn_over_one_must_be_breach(self):
        document = slo_document(record={"burn_rate": 1.5})
        with pytest.raises(ValueError, match="breach"):
            validate_slo(document)

    def test_percentages_bounded(self):
        document = slo_document(record={"attainment_pct": 120.0})
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            validate_slo(document)


class TestCli:
    def test_requires_something_to_validate(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_slo_flag(self, tmp_path, capsys):
        path = tmp_path / "slo.json"
        path.write_text(__import__("json").dumps(slo_document()))
        assert main(["--slo", str(path)]) == 0
        assert "valid SLO report" in capsys.readouterr().out

    def test_tree_flag_catches_orphans(self, tmp_path, capsys):
        import json

        document = {
            "traceEvents": [event("root", 1), event("lost", 2, parent=9)]
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(document))
        assert main([str(path)]) == 0
        assert main([str(path), "--tree"]) == 1
        assert "orphaned" in capsys.readouterr().err
