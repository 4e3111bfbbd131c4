"""Event schema conformance and torn-tail-tolerant stream loading.

The strict validator mirrors :mod:`repro.results.records`: unknown keys,
missing keys, wrong types, unknown kinds, negative durations, non-scalar
attributes, and future versions are all refused with an
:class:`~repro.errors.ObsError`.  The loaders share the shard layer's
torn-tail contract: a writer killed mid-line costs exactly the final
line, never the stream.
"""

import json

import pytest

from repro.errors import ObsError, ShardError
from repro.obs.events import (
    EVENT_VERSION,
    events_path,
    load_partial_events,
    metrics_path,
    validate_event,
)


def _span(**over):
    ev = {"v": EVENT_VERSION, "kind": "span", "name": "run", "span": 1,
          "parent": None, "t0": 0.5, "dur": 0.25, "attrs": {"n": 8}}
    ev.update(over)
    return ev


def _mark(**over):
    ev = {"v": EVENT_VERSION, "kind": "mark", "name": "campaign-start",
          "t": 1.5, "attrs": {"runs": 3}}
    ev.update(over)
    return ev


def _metrics(**over):
    ev = {"v": EVENT_VERSION, "kind": "metrics", "t": 2.0,
          "metrics": {"counters": {}, "gauges": {}, "histograms": {}}}
    ev.update(over)
    return ev


class TestValidateEvent:
    @pytest.mark.parametrize("event", [_span(), _mark(), _metrics()])
    def test_valid_events_round_trip(self, event):
        assert validate_event(event) == event

    def test_span_parent_may_be_an_id(self):
        validate_event(_span(span=2, parent=1))

    @pytest.mark.parametrize("attrs", [
        {"s": "x"}, {"i": 3}, {"f": 0.5}, {"b": True}, {"none": None},
    ])
    def test_attr_scalars_are_allowed(self, attrs):
        validate_event(_span(attrs=attrs))

    def test_non_mapping_is_refused(self):
        with pytest.raises(ObsError, match="must be an object"):
            validate_event([1, 2])

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ObsError, match="kind must be one of"):
            validate_event(_span(kind="trace"))

    def test_unknown_key_is_refused(self):
        with pytest.raises(ObsError, match="t1"):
            validate_event(_span(t1=0.75))  # no redundant end timestamps

    def test_missing_key_is_refused(self):
        ev = _span()
        del ev["dur"]
        with pytest.raises(ObsError, match="dur"):
            validate_event(ev)

    def test_wrong_type_is_refused(self):
        with pytest.raises(ObsError):
            validate_event(_span(span="1"))

    def test_negative_duration_is_refused(self):
        with pytest.raises(ObsError, match="dur must be >= 0"):
            validate_event(_span(dur=-0.1))

    def test_span_id_zero_is_refused(self):
        with pytest.raises(ObsError, match="span must be >= 1"):
            validate_event(_span(span=0))

    def test_non_scalar_attr_value_is_refused(self):
        with pytest.raises(ObsError, match="JSON scalar"):
            validate_event(_span(attrs={"nested": {"a": 1}}))

    def test_non_string_attr_key_is_refused(self):
        with pytest.raises(ObsError, match="keys must be strings"):
            validate_event(_mark(attrs={3: "x"}))

    def test_newer_version_is_refused(self):
        with pytest.raises(ObsError, match="newer than this reader"):
            validate_event(_span(v=EVENT_VERSION + 1))

    def test_where_names_the_location(self):
        with pytest.raises(ObsError, match="events.jsonl:7"):
            validate_event(_span(dur=-1), where="events.jsonl:7")


class TestPaths:
    def test_monolithic_paths(self, tmp_path):
        assert events_path(tmp_path, "smoke") == tmp_path / "smoke.events.jsonl"
        assert metrics_path(tmp_path, "smoke") == tmp_path / "smoke.metrics.json"
        # Shard 0 of 1 is the unsharded campaign: same stem.
        assert events_path(tmp_path, "smoke", shard_index=0, shards=1) == (
            events_path(tmp_path, "smoke")
        )
        assert metrics_path(tmp_path, "smoke", shard_index=0, shards=1) == (
            metrics_path(tmp_path, "smoke")
        )

    def test_shard_paths(self, tmp_path):
        assert events_path(tmp_path, "smoke", shard_index=1, shards=3) == (
            tmp_path / "smoke.shard-1-of-3.events.jsonl"
        )
        assert metrics_path(tmp_path, "smoke", shard_index=1, shards=3) == (
            tmp_path / "smoke.shard-1-of-3.metrics.json"
        )

    def test_shards_without_index_stays_monolithic(self, tmp_path):
        # An all-shards-in-process run merges into the canonical stem.
        assert events_path(tmp_path, "smoke", shard_index=None, shards=3) == (
            tmp_path / "smoke.events.jsonl"
        )


class TestLoading:
    def _write(self, path, events, tail=b""):
        data = b"".join(
            json.dumps(e, sort_keys=True).encode() + b"\n" for e in events
        )
        path.write_bytes(data + tail)
        return len(data)

    def test_partial_tolerates_a_torn_tail(self, tmp_path):
        path = tmp_path / "c.events.jsonl"
        good = self._write(path, [_mark(), _span()],
                           tail=b'{"v": 1, "kind": "sp')
        events, torn, good_bytes = load_partial_events(path)
        assert [e["kind"] for e in events] == ["mark", "span"]
        assert torn == 1
        assert good_bytes == good  # the resume truncation offset

    def test_missing_file_is_an_empty_partial_stream(self, tmp_path):
        events, torn, good = load_partial_events(tmp_path / "nope.jsonl")
        assert (events, torn, good) == ([], 0, 0)

    def test_mid_stream_corruption_is_never_tolerated(self, tmp_path):
        path = tmp_path / "c.events.jsonl"
        good_line = json.dumps(_mark(), sort_keys=True).encode() + b"\n"
        path.write_bytes(b"not json\n" + good_line)
        with pytest.raises(ShardError):
            load_partial_events(path)

    def test_invalid_event_in_stream_is_an_error(self, tmp_path):
        path = tmp_path / "c.events.jsonl"
        self._write(path, [_span(dur=-5.0), _mark()])
        with pytest.raises(ShardError):
            load_partial_events(path)
