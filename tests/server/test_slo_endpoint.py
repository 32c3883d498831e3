"""``GET /slo``: live SLO evaluation over the manager's metrics."""

import os
import sys

import pytest

from repro.obs.slo import SloEngine, SloTarget
from repro.server import JobManager, JobState

from .test_http import _serve, request
from .test_manager import instant_executor, wait_for

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "..", "tools")
)
from validate_trace import validate_slo  # noqa: E402


@pytest.fixture()
def served():
    yield from _serve(JobManager(workers=1, executor=instant_executor))


def _submit_and_finish(base, count=3):
    ids = []
    for _ in range(count):
        status, _, doc = request(
            "POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"}
        )
        assert status == 201
        ids.append(doc["id"])
    for job_id in ids:
        assert wait_for(
            lambda job_id=job_id: request(
                "GET", f"{base}/jobs/{job_id}"
            )[2]["state"]
            == "done"
        )
    return ids


class TestSloEndpoint:
    def test_slo_returns_valid_document(self, served):
        base, manager = served
        _submit_and_finish(base)
        status, _, document = request("GET", f"{base}/slo")
        assert status == 200
        validate_slo(document)
        assert document["risk"] == "ok"

    def test_records_reflect_live_histograms(self, served):
        base, manager = served
        _submit_and_finish(base, count=5)
        _, _, document = request("GET", f"{base}/slo")
        availability = next(
            r
            for r in document["records"]
            if r["target"] == "synthesize" and r["objective"] == "availability"
        )
        assert availability["events"] == 5
        assert availability["errors"] == 0
        assert availability["attainment_pct"] == 100.0
        latency = next(
            r
            for r in document["records"]
            if r["target"] == "synthesize" and r["objective"] == "p95"
        )
        assert latency["events"] == 5
        assert latency["observed"] is not None

    def test_breach_returns_503(self):
        def failing(job_spec, *, cancelled=None):
            raise ValueError("deterministic failure")

        manager = JobManager(workers=1, executor=failing)
        generator = _serve(manager)
        base, manager = next(generator)
        try:
            status, _, doc = request(
                "POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"}
            )
            assert status == 201
            assert wait_for(
                lambda: request("GET", f"{base}/jobs/{doc['id']}")[2]["state"]
                == "failed"
            )
            status, _, document = request("GET", f"{base}/slo")
            assert status == 503
            assert document["risk"] == "breach"
            validate_slo(document)
        finally:
            generator.close()

    def test_metrics_carry_published_slo_gauges(self, served):
        base, manager = served
        _submit_and_finish(base)
        request("GET", f"{base}/slo")  # publishes slo.* gauges
        _, _, metrics = request("GET", f"{base}/metrics")
        assert metrics["gauges"]["slo.risk"] == 0.0
        assert "slo.jobs.availability.burn_rate" in metrics["gauges"]

    def test_stats_expose_slo_risk(self, served):
        base, manager = served
        _submit_and_finish(base)
        manager.slo_report(publish=True)
        assert manager.stats()["slo_risk"] == "ok"

    def test_custom_engine_injected(self):
        engine = SloEngine(
            [
                SloTarget(
                    name="custom",
                    availability_pct=50.0,
                    good=("server.jobs.done",),
                    bad=("server.jobs.failed",),
                )
            ]
        )
        manager = JobManager(
            workers=1, executor=instant_executor, slo=engine
        )
        generator = _serve(manager)
        base, manager = next(generator)
        try:
            _submit_and_finish(base, count=1)
            _, _, document = request("GET", f"{base}/slo")
            assert [t["name"] for t in document["targets"]] == ["custom"]
        finally:
            generator.close()
