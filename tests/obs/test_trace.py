"""Tracer core: one clock, honest spans, ambient discipline, free when off.

Pins the three design rules of :mod:`repro.obs.trace`: durations are
authoritative (retro spans copy measured durations bit-for-bit), the
ambient tracer is context-local (pool workers never inherit it), and the
null tracer is a constant-time no-op — including the clock identity that
makes span durations and record ``*_seconds`` fields directly comparable.
"""

import contextvars

import pytest

from repro import obs
from repro.model.referee import monotonic_clock
from repro.obs.trace import (
    EVENT_VERSION,
    NULL_TRACER,
    NullTracer,
    Tracer,
    clock,
    current_tracer,
    use_tracer,
)


class _Sink:
    """A list-backed event sink (stands in for JsonlStreamWriter)."""

    def __init__(self):
        self.events = []
        self.closed = False

    def write(self, event):
        self.events.append(dict(event))

    def close(self):
        self.closed = True


class TestClockIdentity:
    def test_tracer_clock_is_the_engine_clock(self):
        # Not merely equal behaviour: the *same function object*, so span
        # durations and record *_seconds share one timebase by identity.
        assert clock is monotonic_clock


class TestSpans:
    def test_span_event_shape_and_nesting(self):
        sink = _Sink()
        tracer = Tracer(sink)
        with tracer.span("outer", campaign="c"):
            with tracer.span("inner", n=8):
                pass
        inner, outer = sink.events  # children close (emit) first
        assert inner["kind"] == outer["kind"] == "span"
        assert inner["v"] == outer["v"] == EVENT_VERSION
        assert outer["parent"] is None
        assert inner["parent"] == outer["span"]
        assert inner["span"] != outer["span"]
        assert inner["dur"] >= 0 and outer["dur"] >= inner["dur"]
        assert outer["attrs"] == {"campaign": "c"}
        assert inner["attrs"] == {"n": 8}

    def test_span_ids_are_unique_and_positive(self):
        tracer = Tracer(_Sink())
        ids = set()
        for _ in range(5):
            with tracer.span("s") as s:
                ids.add(s.span_id)
        assert len(ids) == 5
        assert all(i >= 1 for i in ids)

    def test_set_attaches_attrs_inside_the_block(self):
        sink = _Sink()
        tracer = Tracer(sink)
        with tracer.span("s", a=1) as s:
            s.set(b=2).set(a=3)
        assert sink.events[0]["attrs"] == {"a": 3, "b": 2}

    def test_retro_span_copies_duration_bit_for_bit(self):
        sink = _Sink()
        tracer = Tracer(sink)
        dur = 0.123456789012345  # no float that round-trips sloppily
        tracer.emit_span("local", 10.0, dur, protocol="forest", n=8)
        ev = sink.events[0]
        assert ev["dur"] == dur  # exact — the reconciliation mechanism
        assert ev["t0"] == 10.0
        assert ev["parent"] is None

    def test_retro_span_defaults_parent_to_innermost_open_span(self):
        sink = _Sink()
        tracer = Tracer(sink)
        with tracer.span("outer") as outer:
            child = tracer.emit_span("setup", 0.0, 0.5)
        retro, _outer = sink.events
        assert retro["parent"] == outer.span_id
        assert child >= 1

    def test_retro_span_explicit_parent_wins(self):
        sink = _Sink()
        tracer = Tracer(sink)
        run_id = tracer.emit_span("run", 0.0, 1.0)
        tracer.emit_span("setup", 0.0, 0.5, parent=run_id)
        assert sink.events[1]["parent"] == run_id


class TestMarksAndMetrics:
    def test_mark_event_shape(self):
        sink = _Sink()
        Tracer(sink).mark("campaign-start", runs=4)
        ev = sink.events[0]
        assert ev["kind"] == "mark"
        assert ev["name"] == "campaign-start"
        assert ev["attrs"] == {"runs": 4}
        assert ev["t"] > 0

    def test_metrics_snapshot_event_shape(self):
        sink = _Sink()
        snap = {"counters": {"runs_started": 2}, "gauges": {}, "histograms": {}}
        Tracer(sink).metrics_snapshot(snap)
        ev = sink.events[0]
        assert ev["kind"] == "metrics"
        assert ev["metrics"] == snap


class TestSubscribers:
    def test_subscribers_see_every_event_after_the_sink(self):
        sink, seen = _Sink(), []
        tracer = Tracer(sink, subscribers=(seen.append,))
        with tracer.span("s"):
            pass
        tracer.mark("m")
        assert [e["kind"] for e in seen] == ["span", "mark"]
        assert len(sink.events) == 2

    def test_sinkless_tracer_feeds_subscribers_only(self):
        # How --progress runs without --trace: events stay in-process.
        seen = []
        tracer = Tracer(None, subscribers=(seen.append,))
        tracer.mark("m")
        assert len(seen) == 1
        tracer.close()  # no sink: close is a no-op

    def test_subscriber_exceptions_propagate(self):
        def broken(event):
            raise RuntimeError("consumer bug")

        tracer = Tracer(_Sink(), subscribers=(broken,))
        with pytest.raises(RuntimeError, match="consumer bug"):
            tracer.mark("m")

    def test_close_closes_the_sink(self):
        sink = _Sink()
        tracer = Tracer(sink)
        tracer.close()
        assert sink.closed


class TestNullTracer:
    def test_every_operation_is_a_no_op(self):
        t = NullTracer()
        assert t.enabled is False
        with t.span("s", a=1) as s:
            assert s.set(b=2) is s
        assert t.emit_span("s", 0.0, 1.0) == 0
        assert t.mark("m") is None
        assert t.metrics_snapshot({}) is None
        assert t.current_span_id() is None
        assert t.close() is None

    def test_null_span_is_one_shared_object(self):
        # The off-path allocates nothing per call — the overhead contract
        # the trace-overhead speedup floor pins.
        t = NullTracer()
        assert t.span("a") is t.span("b")


class TestAmbientTracer:
    def test_default_is_the_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer(_Sink())
        with use_tracer(tracer) as active:
            assert active is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_module_level_span_and_mark_use_the_ambient_tracer(self):
        sink = _Sink()
        with use_tracer(Tracer(sink)):
            with obs.span("phase", n=4):
                pass
            obs.mark("tick")
        assert [e["name"] for e in sink.events] == ["phase", "tick"]

    def test_fresh_contexts_do_not_inherit_the_ambient_tracer(self):
        # Pool workers run in fresh contexts: single-writer by construction.
        tracer = Tracer(_Sink())
        with use_tracer(tracer):
            ctx = contextvars.Context()  # what a new thread/process gets
            assert ctx.run(current_tracer) is NULL_TRACER


class TestSpanTaxonomyRegistry:
    def test_span_is_a_registry_kind(self):
        from repro import registry

        assert "span" in registry.kinds()

    def test_every_engine_span_name_is_registered(self):
        from repro import registry

        assert set(registry.SPAN.names()) == {
            "campaign", "shard", "run", "setup", "local", "referee", "global"}

    def test_span_entries_declare_their_attr_keys(self):
        from repro import registry

        keys = registry.get("span", "run")()
        assert "spec" in keys and "cached" in keys and "worker" in keys
        assert registry.get("span", "setup")() == ()
