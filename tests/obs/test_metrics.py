"""MetricsRegistry semantics, snapshot stability, Prometheus rendering.

The registry is the always-on half of the observability layer (event
streaming is opt-in, metrics are not), so its snapshot contract — sorted,
stable, JSON-ready — is what the manifest, the sidecar file, and
``repro stats`` all lean on.
"""

import json

import pytest

from repro.errors import ObsError
from repro.obs.metrics import MetricsRegistry, load_metrics_file, render_prometheus


class TestCounters:
    def test_default_increment_is_one(self):
        m = MetricsRegistry()
        m.inc("runs_started")
        m.inc("runs_started")
        assert m.counter("runs_started") == 2

    def test_increment_by_value(self):
        m = MetricsRegistry()
        m.inc("bits_total", 96)
        m.inc("bits_total", 32)
        assert m.counter("bits_total") == 128

    def test_labels_split_series(self):
        m = MetricsRegistry()
        m.inc("runs_completed", status="ok")
        m.inc("runs_completed", status="ok")
        m.inc("runs_completed", status="error")
        assert m.counter("runs_completed", status="ok") == 2
        assert m.counter("runs_completed", status="error") == 1
        assert m.counter("runs_completed") == 0  # the bare series is its own

    def test_unfired_series_reads_zero(self):
        assert MetricsRegistry().counter("nope") == 0

    def test_label_order_does_not_split_series(self):
        m = MetricsRegistry()
        m.inc("x", a="1", b="2")
        assert m.counter("x", b="2", a="1") == 1


class TestGaugesAndHistograms:
    def test_gauge_last_write_wins(self):
        m = MetricsRegistry()
        m.set_gauge("cache_hit_ratio", 0.25)
        m.set_gauge("cache_hit_ratio", 0.75)
        assert m.to_dict()["gauges"]["cache_hit_ratio"] == 0.75

    def test_histogram_streams_in_constant_space(self):
        m = MetricsRegistry()
        for v in (0.5, 0.1, 0.4):
            m.observe("run_seconds", v)
        h = m.to_dict()["histograms"]["run_seconds"]
        assert h["count"] == 3
        assert h["total"] == pytest.approx(1.0)
        assert h["min"] == 0.1
        assert h["max"] == 0.5
        assert h["mean"] == pytest.approx(1.0 / 3)


class TestSnapshot:
    def test_snapshot_keys_are_sorted(self):
        m = MetricsRegistry()
        m.inc("zz")
        m.inc("aa")
        m.set_gauge("z_gauge", 1)
        m.set_gauge("a_gauge", 2)
        snap = m.to_dict()
        assert list(snap["counters"]) == ["aa", "zz"]
        assert list(snap["gauges"]) == ["a_gauge", "z_gauge"]

    def test_series_key_renders_prometheus_style(self):
        m = MetricsRegistry()
        m.inc("worker_tasks", worker="123:MainThread")
        assert 'worker_tasks{worker="123:MainThread"}' in m.to_dict()["counters"]

    def test_snapshot_is_json_ready(self):
        m = MetricsRegistry()
        m.inc("runs_started")
        m.observe("run_seconds", 0.5)
        json.dumps(m.to_dict())  # must not raise


class TestRenderPrometheus:
    def test_counters_gauges_and_histograms_render(self):
        m = MetricsRegistry()
        m.inc("runs_completed", 3, status="ok")
        m.set_gauge("cache_hit_ratio", 0.5)
        m.observe("run_seconds", 0.25)
        text = render_prometheus(m.to_dict())
        assert "# TYPE repro_runs_completed counter" in text
        assert 'repro_runs_completed{status="ok"} 3' in text
        assert "repro_cache_hit_ratio 0.5" in text
        assert "repro_run_seconds_count 1" in text
        assert "repro_run_seconds_sum 0.25" in text
        assert "repro_run_seconds_min 0.25" in text
        assert text.endswith("\n")

    def test_output_is_byte_stable(self):
        m = MetricsRegistry()
        m.inc("b")
        m.inc("a")
        assert render_prometheus(m.to_dict()) == render_prometheus(m.to_dict())

    def test_missing_section_is_refused(self):
        with pytest.raises(ObsError, match="histograms"):
            render_prometheus({"counters": {}, "gauges": {}})


class TestLoadMetricsFile:
    def test_round_trip(self, tmp_path):
        m = MetricsRegistry()
        m.inc("runs_started", 4)
        path = tmp_path / "c.metrics.json"
        path.write_text(json.dumps({"campaign": "c", "metrics": m.to_dict()}))
        loaded = load_metrics_file(path)
        assert loaded["campaign"] == "c"
        assert loaded["metrics"]["counters"]["runs_started"] == 4

    def test_missing_file_names_the_fix(self, tmp_path):
        with pytest.raises(ObsError, match="run the campaign first"):
            load_metrics_file(tmp_path / "nope.metrics.json")

    def test_invalid_json_is_an_error(self, tmp_path):
        path = tmp_path / "bad.metrics.json"
        path.write_text("{nope")
        with pytest.raises(ObsError, match="not valid JSON"):
            load_metrics_file(path)

    def test_wrong_shape_is_an_error(self, tmp_path):
        path = tmp_path / "odd.metrics.json"
        path.write_text(json.dumps({"campaign": "c"}))
        with pytest.raises(ObsError, match="missing the 'metrics' key"):
            load_metrics_file(path)

    @pytest.mark.parametrize("raw,match", [
        ({"metrics": 5}, "missing the 'metrics' key"),
        ({"metrics": {"counters": [], "gauges": {}, "histograms": {}}},
         "missing the 'counters' section"),
    ])
    def test_non_object_sections_are_an_error(self, tmp_path, raw, match):
        path = tmp_path / "odd.metrics.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ObsError, match=match):
            load_metrics_file(path)


class TestMerge:
    """Snapshot folding — the serve daemon's fleet-level aggregation."""

    def test_counters_add_and_gauges_take_the_incoming_value(self):
        fleet, run = MetricsRegistry(), MetricsRegistry()
        fleet.inc("runs_started", 3)
        fleet.set_gauge("cache_hit_ratio", 0.25)
        run.inc("runs_started", 5)
        run.inc("runs_completed", 5, status="ok")
        run.set_gauge("cache_hit_ratio", 0.75)
        fleet.merge(run.to_dict())
        assert fleet.counter("runs_started") == 8
        assert fleet.counter("runs_completed", status="ok") == 5
        assert fleet.gauge("cache_hit_ratio") == 0.75  # last write wins

    def test_histograms_fold_and_mean_is_recomputed(self):
        fleet, run = MetricsRegistry(), MetricsRegistry()
        fleet.observe("run_seconds", 1.0)
        run.observe("run_seconds", 3.0)
        run.observe("run_seconds", 5.0)
        fleet.merge(run.to_dict())
        h = fleet.to_dict()["histograms"]["run_seconds"]
        assert h["count"] == 3
        assert (h["min"], h["max"], h["total"]) == (1.0, 5.0, 9.0)
        assert h["mean"] == pytest.approx(3.0)

    def test_merge_is_associative_with_fresh_series(self):
        fleet = MetricsRegistry()
        for value in (2.0, 4.0):
            run = MetricsRegistry()
            run.observe("wall", value)
            run.inc("jobs")
            fleet.merge(run.to_dict())
        snap = fleet.to_dict()
        assert snap["counters"]["jobs"] == 2
        assert snap["histograms"]["wall"]["count"] == 2

    def test_truncated_snapshot_is_refused(self):
        fleet = MetricsRegistry()
        with pytest.raises(ObsError, match="histograms"):
            fleet.merge({"counters": {}, "gauges": {}})

    def test_gauge_accessor_defaults_to_zero(self):
        m = MetricsRegistry()
        assert m.gauge("serve_queue_depth") == 0
        m.set_gauge("serve_queue_depth", 7)
        assert m.gauge("serve_queue_depth") == 7
