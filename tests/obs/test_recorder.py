"""Unit tests for the span tracer and the module-level recorder switch."""

import pytest

from repro import obs


class TestSpanNesting:
    def test_children_get_parent_ids(self):
        rec = obs.Recorder()
        with rec.span("outer") as outer:
            with rec.span("middle") as middle:
                with rec.span("inner") as inner:
                    pass
        spans = {s.name: s for s in rec.finished_spans()}
        assert spans["outer"].parent_id is None
        assert spans["middle"].parent_id == outer.id
        assert spans["inner"].parent_id == middle.id

    def test_siblings_share_parent(self):
        rec = obs.Recorder()
        with rec.span("root") as root:
            with rec.span("a"):
                pass
            with rec.span("b"):
                pass
        a, b = (s for s in rec.finished_spans() if s.name in "ab")
        assert a.parent_id == root.id and b.parent_id == root.id

    def test_attrs_at_open_and_via_set(self):
        rec = obs.Recorder()
        with rec.span("s", category="test", k=1) as handle:
            handle.set(v=2)
        (span,) = rec.finished_spans()
        assert span.attrs == {"k": 1, "v": 2}
        assert span.category == "test"

    def test_exception_closes_span_and_records_error(self):
        rec = obs.Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError("bad")
        (span,) = rec.finished_spans()
        assert span.end_wall is not None
        assert "RuntimeError: bad" == span.error
        # The stack unwound: the next span is a root again.
        with rec.span("after"):
            pass
        after = rec.finished_spans()[-1]
        assert after.parent_id is None

    def test_duration_and_cpu_time_nonnegative(self):
        rec = obs.Recorder()
        with rec.span("t"):
            sum(range(1000))
        (span,) = rec.finished_spans()
        assert span.duration >= 0.0
        assert span.cpu_time >= 0.0

    def test_keep_spans_false_times_and_nests_but_keeps_nothing(self):
        rec = obs.Recorder(keep_spans=False)
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                assert rec.current_span_id() == inner.id
            assert rec.current_span_id() == outer.id
        job = rec.open_span("job", parent_id=outer.id)
        rec.close_span(job)
        assert inner.span.parent_id == outer.id and job.parent_id == outer.id
        assert rec.spans == [] and rec.finished_spans() == []
        assert {"outer", "inner", "job"} <= set(rec.metrics.to_dict()["timers"])

    def test_every_closed_span_feeds_a_timer(self):
        rec = obs.Recorder()
        with rec.span("pass.x"):
            pass
        stat = rec.metrics.timer_stat("pass.x")
        assert stat is not None and stat.count == 1


class TestNullRecorder:
    def test_default_recorder_is_null(self):
        assert obs.get() is obs.NULL
        assert not obs.active()

    def test_null_span_is_shared_noop(self):
        first = obs.NULL.span("anything", k=1)
        second = obs.NULL.span("other")
        assert first is second
        assert first.id is None
        with first as handle:
            assert handle.set(x=1) is handle

    def test_null_metrics_stay_empty(self):
        obs.NULL.incr("c")
        obs.NULL.gauge("g", 1.0)
        obs.NULL.observe("t", 0.5)
        with obs.NULL.timer("t2"):
            pass
        assert len(obs.NULL.metrics) == 0
        assert obs.NULL.spans == []


class TestRecorderSwitch:
    def test_use_installs_and_restores(self):
        rec = obs.Recorder()
        assert obs.get() is obs.NULL
        with obs.use(rec) as active:
            assert active is rec
            assert obs.get() is rec
            assert obs.active()
        assert obs.get() is obs.NULL

    def test_use_restores_on_exception(self):
        with pytest.raises(ValueError):
            with obs.use(obs.Recorder()):
                raise ValueError()
        assert obs.get() is obs.NULL

    def test_enable_disable(self):
        rec = obs.enable()
        try:
            assert obs.get() is rec
        finally:
            obs.disable()
        assert obs.get() is obs.NULL
