"""Model-layer instrumentation: phase spans, phase times, digest safety.

The referee emits retro spans for its three phases only under an
explicitly installed ambient tracer — by default the instrumentation is
the null tracer's constant-time early return — and the span durations are
the *same floats* the :class:`~repro.model.referee.RunReport` carries, so
trace and report can never disagree.  Crucially, none of this may change
what a record *is*: the serialized record schema (and therefore every
frozen digest) stays byte-identical.
"""

import pytest

from repro.engine.scenario import RunSpec, execute_run
from repro.graphs.generators import random_forest
from repro.model import Referee, RunReport
from repro.obs.trace import Tracer, use_tracer
from repro.protocols.forest import ForestReconstructionProtocol


class _Sink:
    def __init__(self):
        self.events = []

    def write(self, event):
        self.events.append(dict(event))

    def close(self):
        pass


def _run_traced():
    g = random_forest(12, 3, seed=3)
    sink = _Sink()
    with use_tracer(Tracer(sink)):
        report = Referee().run(ForestReconstructionProtocol(), g)
    return report, sink.events


class TestPhaseSpans:
    def test_phases_emit_under_an_ambient_tracer(self):
        _report, events = _run_traced()
        assert [e["name"] for e in events] == ["local", "referee", "global"]
        assert all(e["kind"] == "span" for e in events)

    def test_span_durations_equal_report_fields_exactly(self):
        report, events = _run_traced()
        by_name = {e["name"]: e for e in events}
        assert by_name["local"]["dur"] == report.local_seconds
        assert by_name["referee"]["dur"] == report.referee_seconds
        assert by_name["global"]["dur"] == report.global_seconds

    def test_phase_spans_carry_protocol_and_size(self):
        _report, events = _run_traced()
        for ev in events:
            assert ev["attrs"]["protocol"] == "forest-reconstruction"
            assert ev["attrs"]["n"] == 12

    def test_no_tracer_means_no_events(self):
        g = random_forest(12, 3, seed=3)
        report = Referee().run(ForestReconstructionProtocol(), g)
        # The ambient default is NULL_TRACER: nothing to assert *on* —
        # the report itself is the complete output.
        assert report.output == g


class TestPhaseSeconds:
    def test_referee_seconds_defaults_to_zero(self):
        # Hand-built reports (older call sites, tests) stay valid.
        fields = {f for f in RunReport.__dataclass_fields__}
        assert "referee_seconds" in fields


class TestRecordDigestsUnchanged:
    def test_record_schema_top_level_keys_are_frozen(self):
        spec = RunSpec(scenario="s", family="random_forest", n=12, seed=3,
                       protocol="forest")
        record = execute_run(spec)
        assert set(record.to_json_dict()) == {
            "spec_version", "spec", "result", "timing", "cached",
        }

    def test_timing_gains_setup_and_referee_seconds(self):
        spec = RunSpec(scenario="s", family="random_forest", n=12, seed=3,
                       protocol="forest")
        timing = execute_run(spec).to_json_dict()["timing"]
        assert set(timing) >= {
            "setup_seconds", "local_seconds", "referee_seconds",
            "global_seconds", "wall_seconds",
        }

    def test_tracing_does_not_change_the_output_digest(self):
        spec = RunSpec(scenario="s", family="random_forest", n=12, seed=3,
                       protocol="forest")
        plain = execute_run(spec)
        with use_tracer(Tracer(_Sink())):
            traced = execute_run(spec)
        assert traced.output_digest == plain.output_digest
        assert traced.total_message_bits == plain.total_message_bits
        assert traced.status == plain.status
