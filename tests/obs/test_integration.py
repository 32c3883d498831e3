"""Integration: instrumented flow, simulators, and the CLI obs flags."""

import json
import os
import sys

import pytest

from repro import obs
from repro.apps import crane
from repro.cli import main
from repro.core import synthesize
from repro.simulink import Simulator

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "..", "tools")
)
from validate_trace import validate_metrics, validate_trace  # noqa: E402

FLOW_STEPS = (
    "flow.validate",
    "flow.allocate",
    "flow.map",
    "flow.intermediate",
    "flow.optimize",
    "flow.layout",
)


class TestSynthesisReport:
    def test_census_always_populated(self):
        result = synthesize(crane.build_model(), behaviors=crane.behaviors())
        census = result.obs.census
        assert census["model"] == "crane"
        assert census["barriers_inserted"] == 1
        assert census["channels"]["intra_cpu"] == 3
        assert census["trace"]["links"] == len(result.mapping.context.trace)

    def test_one_span_per_flow_step_when_recording(self):
        with obs.use(obs.Recorder()) as rec:
            synthesize(crane.build_model(), behaviors=crane.behaviors())

        def named(name):
            return [s for s in rec.spans if s.name == name]

        for step in FLOW_STEPS:
            assert len(named(step)) == 1, step
        (root,) = named("flow.synthesize")
        for step in FLOW_STEPS:
            assert named(step)[0].parent_id == root.id

    def test_rule_spans_link_to_trace_links(self):
        with obs.use(obs.Recorder()) as rec:
            result = synthesize(
                crane.build_model(), behaviors=crane.behaviors()
            )
        links = result.mapping.context.trace.links()
        span_ids = {s.id for s in rec.spans}
        assert links and all(link.span_id in span_ids for link in links)

    def test_metrics_contain_documented_families(self):
        with obs.use(obs.Recorder()) as rec:
            synthesize(crane.build_model(), behaviors=crane.behaviors())
        metrics = rec.metrics.to_dict()
        validate_metrics(metrics)
        counters = metrics["counters"]
        assert counters["flow.synthesize.calls"] == 1
        assert counters["optimize.barriers.inserted"] == 1

    def test_synthesis_publishes_no_slo_gauges(self):
        # SLO gauges come from /slo, slo_report() and server shutdown;
        # a synthesis never evaluates the session's engine.
        rec = obs.Recorder()
        rec.slo_engine = obs.SloEngine(obs.default_server_targets())
        rec.slo_engine.attach(rec.metrics)
        with obs.use(rec):
            synthesize(crane.build_model(), behaviors=crane.behaviors())
        gauges = rec.metrics.to_dict()["gauges"]
        assert rec.metrics.counter("flow.synthesize.calls") == 1
        assert not [name for name in gauges if name.startswith("slo.")]

    def test_trace_store_stats_and_json(self):
        result = synthesize(crane.build_model(), behaviors=crane.behaviors())
        store = result.mapping.context.trace
        stats = store.stats()
        assert stats["links"] == len(store)
        assert stats["retained_sources"] >= stats["distinct_sources"] > 0
        assert sum(stats["links_per_rule"].values()) == stats["links"]
        document = json.loads(store.to_json())
        assert len(document["trace"]) == stats["links"]


class TestSimulatorMetrics:
    def test_simulink_run_records_rates(self):
        result = synthesize(crane.build_model(), behaviors=crane.behaviors())
        with obs.use(obs.Recorder()) as rec:
            Simulator(result.caam).run(25, inputs={"In3": [5.0] * 25})
        metrics = rec.metrics
        assert metrics.counter("simulink.sim.steps") == 25
        assert metrics.gauge_value("simulink.sim.steps_per_sec") > 0
        assert metrics.gauge_value("simulink.sim.value_slots") > 0
        fires = [
            name
            for name in metrics.to_dict()["counters"]
            if name.startswith("simulink.fires.")
        ]
        assert fires
        (span,) = [s for s in rec.spans if s.name == "simulink.run"]
        assert span.attrs["steps"] == 25

    def test_fsm_run_records_rates(self):
        from repro.fsm.model import Fsm
        from repro.fsm.simulator import FsmSimulator

        fsm = Fsm("m")
        fsm.add_state("a")
        fsm.add_state("b")
        fsm.add_transition("a", "b", event="go")
        fsm.add_transition("b", "a", event="back")
        with obs.use(obs.Recorder()) as rec:
            FsmSimulator(fsm).run(["go", "back", "go"])
        assert rec.metrics.counter("fsm.sim.events") == 3
        assert rec.metrics.counter("fsm.sim.transitions") == 3
        assert rec.metrics.gauge_value("fsm.sim.steps_per_sec") > 0

    def test_disabled_mode_records_nothing(self):
        result = synthesize(crane.build_model(), behaviors=crane.behaviors())
        before = len(obs.NULL.metrics)
        Simulator(result.caam).run(5)
        assert len(obs.NULL.metrics) == before == 0
        assert obs.NULL.spans == []


class TestParallelObservability:
    """Cache hit/miss counters reach the report and the metrics registry."""

    @pytest.fixture()
    def scoped_cache(self):
        from repro.parallel import cache

        state = cache.snapshot()
        cache.configure(enabled=True)
        yield cache
        cache.restore(state)

    def test_cache_counters_in_report_and_metrics(self, scoped_cache):
        with obs.use(obs.Recorder()) as rec:
            cold = synthesize(crane.build_model())
            warm = synthesize(crane.build_model())
        assert cold.obs.parallel["cache"]["status"] == "miss"
        assert warm.obs.parallel["cache"]["status"] == "hit"
        counters = rec.metrics.to_dict()["counters"]
        assert counters["cache.synthesize.miss"] == 1
        assert counters["cache.synthesize.store"] == 1
        assert counters["cache.synthesize.hit"] == 1
        assert rec.metrics.gauge_value("cache.synthesize.entries") == 1
        # The parallel section survives dict export (e.g. --report-out).
        assert cold.obs.to_dict()["parallel"]["cache"]["status"] == "miss"


class TestCliObservabilityFlags:
    @pytest.fixture()
    def crane_xmi(self, tmp_path):
        path = tmp_path / "crane.xmi"
        assert main(["demo", "crane", str(path)]) == 0
        return str(path)

    def test_synthesize_emits_valid_trace_and_metrics(
        self, crane_xmi, tmp_path, capsys
    ):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        code = main(
            [
                "--trace-out",
                str(trace_path),
                "--metrics-out",
                str(metrics_path),
                "synthesize",
                crane_xmi,
                "-o",
                str(tmp_path / "c.mdl"),
            ]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        validate_trace(trace)
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
        for step in FLOW_STEPS + ("flow.synthesize", "cli.synthesize"):
            assert names.count(step) == 1, step
        metrics = json.loads(metrics_path.read_text())
        validate_metrics(metrics)
        assert metrics["counters"]["optimize.barriers.inserted"] == 1
        out = capsys.readouterr().out
        assert f"wrote {trace_path}" in out
        assert f"wrote {metrics_path}" in out

    def test_flags_absent_write_no_files(self, crane_xmi, tmp_path, capsys):
        out = tmp_path / "c.mdl"
        assert main(["synthesize", crane_xmi, "-o", str(out)]) == 0
        written = {p.name for p in tmp_path.iterdir()}
        assert written == {"crane.xmi", "c.mdl"}
        # The CLI-scoped recorder must not leak into library state.
        assert obs.get() is obs.NULL

    def test_simulate_reports_rate_from_metrics(
        self, crane_xmi, tmp_path, capsys
    ):
        mdl = tmp_path / "c.mdl"
        metrics_path = tmp_path / "m.json"
        assert main(["synthesize", crane_xmi, "-o", str(mdl)]) == 0
        capsys.readouterr()
        code = main(
            [
                "--metrics-out",
                str(metrics_path),
                "simulate",
                str(mdl),
                "--steps",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated 20 step(s) in" in out
        metrics = json.loads(metrics_path.read_text())
        # The printed rate and the exported gauge come from one registry.
        rate = metrics["gauges"]["simulink.sim.steps_per_sec"]
        assert f"({rate:.0f} steps/s)" in out

    def test_explore_reports_cost_from_metrics(self, crane_xmi, capsys):
        assert main(["explore", crane_xmi]) == 0
        out = capsys.readouterr().out
        assert "us/candidate" in out
        assert "Pareto front" in out

    def test_verbose_flag_logs_stages(self, crane_xmi, tmp_path, capsys):
        # --no-cache: a cache hit (e.g. REPRO_CACHE=1 in the environment
        # warmed by an earlier test) would skip the stage logs under test.
        assert (
            main(
                [
                    "-v",
                    "--no-cache",
                    "synthesize",
                    crane_xmi,
                    "-o",
                    str(tmp_path / "c.mdl"),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "INFO repro.core.mapping" in err
        assert "INFO repro.core.optimize" in err
