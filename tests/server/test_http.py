"""Endpoint tests for the JSON-over-HTTP API.

A real :class:`JobServer` is bound to an ephemeral port per fixture; the
manager underneath runs an injected executor so requests are fast and
deterministic.
"""

import http.client
import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.server import JobManager, JobState, make_server
from repro.server.http import MAX_BODY_BYTES

from .test_manager import Gate, instant_executor, wait_for

#: An admissible spec the bad-``timeout_s`` cases extend.
CRANE_SPEC = {"kind": "synthesize", "demo": "crane"}


@pytest.fixture()
def served():
    """(base_url, manager) around an instant executor."""
    yield from _serve(JobManager(workers=1, executor=instant_executor))


@pytest.fixture()
def gated():
    """(base_url, manager, gate) where the single worker blocks."""
    gate = Gate()
    manager = JobManager(workers=1, queue_depth=1, executor=gate)
    generator = _serve(manager, gate)
    yield from generator


def _serve(manager, *extra):
    manager.start()
    server = make_server(manager, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield (f"http://{host}:{port}", manager, *extra)
    finally:
        if extra:  # unblock any gated worker before draining
            extra[0].release.set()
        server.shutdown()
        thread.join(timeout=2.0)
        server.server_close()
        manager.shutdown()


def request(method, url, payload=None):
    """(status, headers, parsed-or-raw body) without raising on 4xx/5xx."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            body = resp.read()
            status, headers = resp.status, dict(resp.headers)
    except urllib.error.HTTPError as exc:
        body = exc.read()
        status, headers = exc.code, dict(exc.headers)
    if headers.get("Content-Type", "").startswith("application/json"):
        return status, headers, json.loads(body.decode("utf-8"))
    return status, headers, body.decode("utf-8")


class TestSubmitAndPoll:
    def test_full_job_lifecycle(self, served):
        base, manager = served
        status, headers, doc = request(
            "POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"}
        )
        assert status == 201
        assert headers["Location"] == f"/jobs/{doc['id']}"
        assert doc["state"] in ("queued", "running", "done")

        job_id = doc["id"]
        assert wait_for(
            lambda: request("GET", f"{base}/jobs/{job_id}")[2]["state"]
            == "done"
        )
        status, _, doc = request("GET", f"{base}/jobs/{job_id}")
        assert status == 200
        assert doc["artifact"] == "crane.mdl"
        assert doc["result"] == {"model": "crane"}

        status, headers, text = request("GET", f"{base}/jobs/{job_id}/artifact")
        assert status == 200
        assert "crane.mdl" in headers["Content-Disposition"]
        assert headers["Content-Type"].startswith("text/plain")
        assert text.startswith("Model {")

    def test_jobs_listing(self, served):
        base, manager = served
        for _ in range(2):
            request("POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"})
        status, _, doc = request("GET", f"{base}/jobs")
        assert status == 200
        assert doc["count"] == 2
        assert all("result" not in job for job in doc["jobs"])


class TestArtifactDownload:
    """A client-chosen model name cannot break the artifact response."""

    @pytest.mark.parametrize(
        "name, plain",
        [("x\"\r\nX-Evil: 1", "x___X-Evil__1.mdl"), ("模型", "__.mdl")],
        ids=["header-injection", "non-latin-1"],
    )
    def test_any_name_downloads_in_full(self, name, plain):
        served = _serve(JobManager(workers=1))
        base, manager = next(served)
        try:
            status, _, doc = request(
                "POST",
                f"{base}/jobs",
                {**CRANE_SPEC, "options": {"name": name}},
            )
            assert status == 201
            job = manager.get(doc["id"])
            assert wait_for(lambda: job.state.terminal, timeout=30.0)
            assert job.state is JobState.DONE, job.error
            expected = job.outcome.artifact_text.encode("utf-8")

            host, port = base[len("http://"):].split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
            try:
                conn.request("GET", f"/jobs/{job.id}/artifact")
                resp = conn.getresponse()
                body = resp.read()
            finally:
                conn.close()
            assert resp.status == 200
            assert body == expected
            assert resp.headers.get("X-Evil") is None
            disposition = resp.headers.get_all("Content-Disposition")
            assert disposition == [
                f'attachment; filename="{plain}"; filename*=UTF-8\'\''
                + urllib.parse.quote(f"{name}.mdl", safe="")
            ]
        finally:
            next(served, None)


class TestErrorStatuses:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "nope"}, "unknown job kind"),
            ({"kind": "synthesize", "model_xmi": 5}, "'model_xmi' must be"),
            ({"kind": "synthesize", "demo": 5}, "'demo' must be"),
            ({**CRANE_SPEC, "timeout_s": True}, "'timeout_s' must be"),
            ({**CRANE_SPEC, "timeout_s": float("nan")}, "'timeout_s' must be"),
            ({**CRANE_SPEC, "timeout_s": float("inf")}, "'timeout_s' must be"),
            ({**CRANE_SPEC, "timeout_s": 0}, "'timeout_s' must be"),
            (
                {**CRANE_SPEC, "options": {"auto_allocate": "yes"}},
                "'auto_allocate' must be",
            ),
            (
                {
                    "kind": "simulate",
                    "demo": "crane",
                    "options": {"engine": "warp"},
                },
                "'engine' must be",
            ),
            ({**CRANE_SPEC, "options": {"name": 5}}, "'name' must be"),
            ({**CRANE_SPEC, "options": {"name": ""}}, "'name' must be"),
        ],
        ids=[
            "unknown-kind",
            "model_xmi-int",
            "demo-int",
            "timeout-bool",
            "timeout-nan",
            "timeout-inf",
            "timeout-zero",
            "auto_allocate-string",
            "simulate-engine-unknown",
            "name-int",
            "name-empty",
        ],
    )
    def test_bad_spec_is_400(self, served, spec, message):
        base, manager = served
        status, _, doc = request("POST", f"{base}/jobs", spec)
        assert status == 400
        assert message in doc["error"]
        assert manager.jobs() == []

    @pytest.mark.parametrize(
        "options",
        [
            {"objective": "speed"},
            {"max_cpus": 0},
            {"max_cpus": "2"},
            {"exhaustive_threshold": "8"},
            {"cycles_per_unit": "x"},
            {"cycles_per_unit": -50},
            {"cycles_per_unit": float("nan")},
        ],
    )
    def test_bad_explore_option_is_400(self, served, options):
        # ``json.dumps`` writes NaN as the bare ``NaN`` token, which the
        # server's parser accepts: the spec check must still refuse it.
        base, manager = served
        status, _, doc = request(
            "POST",
            f"{base}/jobs",
            {"kind": "explore", "demo": "synthetic", "options": options},
        )
        assert status == 400
        assert repr(next(iter(options))) in doc["error"]
        assert manager.jobs() == []

    def test_invalid_json_is_400(self, served):
        base, _ = served
        req = urllib.request.Request(
            f"{base}/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10.0)
        assert info.value.code == 400

    def test_empty_body_is_400(self, served):
        base, _ = served
        req = urllib.request.Request(f"{base}/jobs", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10.0)
        assert info.value.code == 400

    @pytest.mark.parametrize(
        "length, status",
        [("abc", 400), ("1e3", 400), ("-5", 400), (str(MAX_BODY_BYTES + 1), 413)],
    )
    def test_bad_content_length_is_answered(self, served, length, status):
        # Headers only: the server must answer from the header alone.
        base, _ = served
        host, port = base[len("http://"):].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == status
            assert "error" in json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()

    def test_unknown_job_is_404(self, served):
        base, _ = served
        assert request("GET", f"{base}/jobs/job-999999-cafef00d")[0] == 404
        assert (
            request("GET", f"{base}/jobs/job-999999-cafef00d/artifact")[0]
            == 404
        )
        assert (
            request("POST", f"{base}/jobs/job-999999-cafef00d/cancel")[0]
            == 404
        )

    def test_unknown_route_is_404(self, served):
        base, _ = served
        assert request("GET", f"{base}/nope")[0] == 404

    def test_queue_full_is_429_with_retry_after(self, gated):
        base, manager, gate = gated
        request("POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"})
        assert gate.started.wait(timeout=5.0)
        # queue_depth=1: one more queues, the next is shed.
        assert (
            request(
                "POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"}
            )[0]
            == 201
        )
        status, headers, doc = request(
            "POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"}
        )
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert "full" in doc["error"]

    def test_artifact_before_done_is_409(self, gated):
        base, manager, gate = gated
        _, _, doc = request(
            "POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"}
        )
        assert gate.started.wait(timeout=5.0)
        status, _, err = request("GET", f"{base}/jobs/{doc['id']}/artifact")
        assert status == 409
        assert "running" in err["error"]

    def test_shutdown_is_503(self, served):
        base, manager = served
        manager.shutdown()
        status, _, doc = request(
            "POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"}
        )
        assert status == 503
        assert "shutting down" in doc["error"]


class TestCancelEndpoint:
    def test_cancel_running_job(self, gated):
        base, manager, gate = gated
        _, _, doc = request(
            "POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"}
        )
        assert gate.started.wait(timeout=5.0)
        status, _, cancelled = request(
            "POST", f"{base}/jobs/{doc['id']}/cancel"
        )
        assert status == 200
        assert cancelled["state"] == "cancelled"

    def test_delete_alias(self, gated):
        base, manager, gate = gated
        _, _, doc = request(
            "POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"}
        )
        status, _, cancelled = request("DELETE", f"{base}/jobs/{doc['id']}")
        assert status == 200
        assert cancelled["state"] in ("cancelled", "done")


class TestHealthAndMetrics:
    def test_healthz_serving(self, served):
        base, manager = served
        status, _, doc = request("GET", f"{base}/healthz")
        assert status == 200
        assert doc["state"] == "serving"
        assert doc["workers"] == 1
        assert "uptime_s" in doc

    def test_healthz_draining_is_503(self, served):
        base, manager = served
        manager.shutdown()
        status, _, doc = request("GET", f"{base}/healthz")
        assert status == 503
        assert doc["state"] == "draining"

    def test_metrics_reflect_server_activity(self, served):
        base, manager = served
        _, _, doc = request(
            "POST", f"{base}/jobs", {"kind": "synthesize", "demo": "crane"}
        )
        assert wait_for(
            lambda: manager.get(doc["id"]).state is JobState.DONE
        )
        status, _, metrics = request("GET", f"{base}/metrics")
        assert status == 200
        assert metrics["counters"]["server.jobs.submitted"] == 1
        assert metrics["counters"]["server.jobs.done"] == 1
        assert "server.queue.depth" in metrics["gauges"]
        assert "server.job.latency" in metrics.get("histograms", {})
