"""Endpoint tests for the JSON-over-HTTP API.

A real :class:`JobServer` is bound to an ephemeral port per fixture; the
manager underneath runs an injected executor so requests are fast and
deterministic.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.server import JobManager, JobState, make_server
from repro.server.http import HANDLER_THREADS, MAX_BODY_BYTES, _Handler

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
        with exc:
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
            ({**CRANE_SPEC, "options": {"name": "a\ud800"}}, "XML 1.0"),
            ({**CRANE_SPEC, "options": {"name": "a\x0b"}}, "XML 1.0"),
            ({**CRANE_SPEC, "options": {"name": "a\ufffe"}}, "XML 1.0"),
            (
                {"kind": "analyze", "model_xmi": "<xmi>\ud800</xmi>"},
                "'model_xmi' is not UTF-8 text",
            ),
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
            "name-lone-surrogate",
            "name-vertical-tab",
            "name-noncharacter",
            "model_xmi-lone-surrogate",
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
        with info.value:
            assert info.value.code == 400

    def test_empty_body_is_400(self, served):
        base, _ = served
        req = urllib.request.Request(f"{base}/jobs", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10.0)
        with info.value:
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


def _handler_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-server-http-")
    ]


class TestHandlerPool:
    """A fixed set of handler threads serves every connection."""

    def test_requests_start_no_thread(self, served, monkeypatch):
        base, _ = served
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for _ in range(20):
            assert request("GET", f"{base}/healthz")[0] == 200
        assert started == []

    def test_server_close_joins_handler_threads(self):
        served = _serve(JobManager(workers=1, executor=instant_executor))
        base, _ = next(served)
        try:
            assert len(_handler_threads()) == HANDLER_THREADS
            assert request("GET", f"{base}/healthz")[0] == 200
        finally:
            next(served, None)
        assert _handler_threads() == []

    @staticmethod
    def _listening(manager):
        """(server, address, stop) with the listener running."""
        manager.start()
        server = make_server(manager, port=0)
        listener = threading.Thread(target=server.serve_forever, daemon=True)
        listener.start()

        def stop():
            server.shutdown()
            listener.join(timeout=2.0)

        return server, server.server_address[:2], stop

    def test_server_close_drops_queued_connections(self, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        manager = JobManager(workers=1, executor=instant_executor)
        server, address, stop = self._listening(manager)
        clients = []
        try:
            # Two stalls hold both handler threads; ten wait in the queue.
            # One connect at a time stays inside the listen backlog.
            for queued in range(-1, 11):
                clients.append(socket.create_connection(address, timeout=5.0))
                assert wait_for(
                    lambda: server._accepted.qsize() == max(queued, 0)
                )
            stop()
            started = time.monotonic()
            server.server_close()
            elapsed = time.monotonic() - started
            # Serving the queued stalls in turn would take five timeouts.
            assert elapsed < 2.5 * _Handler.timeout
            assert all(client.recv(1) == b"" for client in clients)
            # The two stalls end at their own timeouts, near the deadline.
            assert wait_for(lambda: _handler_threads() == [])
        finally:
            for client in clients:
                client.close()
            manager.shutdown()

    def test_server_close_does_not_wait_for_trickling_clients(
        self, monkeypatch
    ):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        manager = JobManager(workers=1, executor=instant_executor)
        server, address, stop = self._listening(manager)
        done = threading.Event()
        clients = [
            socket.create_connection(address, timeout=5.0) for _ in range(3)
        ]

        def trickle(client):
            # A byte every 0.1 s keeps each read inside the timeout; the
            # trickle ends by itself after 4 s.
            try:
                for _ in range(40):
                    if done.wait(0.1):
                        break
                    client.sendall(b"G")
            except OSError:
                pass

        tricklers = [
            threading.Thread(target=trickle, args=(client,), daemon=True)
            for client in clients[:2]
        ]
        for thread in tricklers:
            thread.start()
        try:
            assert wait_for(lambda: server._accepted.qsize() == 1)
            stop()
            started = time.monotonic()
            server.server_close()
            elapsed = time.monotonic() - started
            assert elapsed < 2 * _Handler.timeout
            assert len(_handler_threads()) == HANDLER_THREADS
        finally:
            done.set()
            for thread in tricklers:
                thread.join(timeout=2.0)
            for client in clients:
                client.close()
            manager.shutdown()
        # Once the trickle stops, each read times out and the threads end.
        assert wait_for(lambda: _handler_threads() == [])

    @pytest.mark.parametrize(
        "sent",
        [b"", b'POST /jobs HTTP/1.0\r\nContent-Length: 100\r\n\r\n{"kind"'],
        ids=["idle", "short-body"],
    )
    def test_stalled_connection_is_dropped(self, served, monkeypatch, sent):
        assert 0 < _Handler.timeout <= 60
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        base, manager = served
        host, port = base[len("http://"):].split(":")
        address = (host, int(port))
        with socket.create_connection(address, timeout=5.0) as stalled:
            stalled.sendall(sent)
            assert request("GET", f"{base}/healthz")[0] == 200
            # The server closes without a response; without its own
            # timeout this recv would wait for the client's 5 s one.
            assert stalled.recv(1) == b""
        assert manager.jobs() == []

    def test_one_stalled_client_delays_nobody(self, served):
        base, _ = served
        host, port = base[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=5.0):
            conn = http.client.HTTPConnection(host, int(port), timeout=2.0)
            try:
                conn.request("GET", "/healthz")
                assert conn.getresponse().status == 200
            finally:
                conn.close()


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
