"""Campaign tracing: exact reconciliation, metrics, layout, crash context.

The acceptance property of the whole layer: a traced campaign's per-phase
span totals equal the record ``*_seconds`` sums *exactly* (same clock,
same floats, copied bit-for-bit through retro spans), run spans carry the
records' ``wall_seconds``, cache hits get no phase children, and metrics
are collected whether or not event streaming is on.
"""

import concurrent.futures
import json
import os

import pytest

import repro.engine.campaign as campaign_module
from repro.engine import Campaign, Scenario
from repro.engine.scenario import execute_run
from repro.errors import ObsError, WorkerCrash
from repro.obs.events import load_partial_events, metrics_path
from repro.obs.metrics import load_metrics_file


def load_events(path):
    """The whole event stream at ``path``; a missing file or torn tail fails."""
    assert os.path.exists(path)
    events, torn, _good = load_partial_events(path)
    assert not torn
    return events


def _grid(n_seeds=4, sizes=(12,)):
    return [
        Scenario(name="forest", family="random_forest", sizes=tuple(sizes),
                 protocol="forest", seeds=tuple(range(n_seeds))),
    ]


def _spans(events, name):
    return [e for e in events if e["kind"] == "span" and e["name"] == name]


@pytest.fixture()
def traced_run(tmp_path):
    campaign = Campaign(_grid(), name="c", results_dir=tmp_path)
    result = campaign.run(trace=True)
    return result, load_events(result.events_path)


class TestReconciliation:
    def test_phase_span_totals_equal_record_timing_sums_exactly(self, traced_run):
        result, events = traced_run
        for key, name in (("setup_seconds", "setup"), ("local_seconds", "local"),
                          ("referee_seconds", "referee"),
                          ("global_seconds", "global")):
            span_total = sum(s["dur"] for s in _spans(events, name))
            record_total = sum(r.timing[key] for r in result.records)
            assert span_total == record_total  # exact, not approx

    def test_run_span_durations_are_the_records_wall_seconds(self, traced_run):
        result, events = traced_run
        durs = sorted(s["dur"] for s in _spans(events, "run"))
        walls = sorted(r.timing["wall_seconds"] for r in result.records)
        assert durs == walls

    def test_one_run_span_per_record_keyed_by_spec_hash(self, traced_run):
        result, events = traced_run
        span_hashes = {s["attrs"]["spec"] for s in _spans(events, "run")}
        record_hashes = {r.spec.content_hash() for r in result.records}
        assert span_hashes == record_hashes

    def test_phase_children_parent_onto_their_run_span(self, traced_run):
        _result, events = traced_run
        run_ids = {s["span"] for s in _spans(events, "run")}
        for name in ("setup", "local", "referee", "global"):
            for child in _spans(events, name):
                assert child["parent"] in run_ids

    def test_campaign_span_is_the_root(self, traced_run):
        _result, events = traced_run
        roots = [e for e in events
                 if e["kind"] == "span" and e["parent"] is None]
        assert [r["name"] for r in roots] == ["campaign"]

    def test_marks_bracket_the_run(self, traced_run):
        _result, events = traced_run
        names = [e["name"] for e in events if e["kind"] == "mark"]
        assert names[0] == "campaign-start"
        assert names[-1] == "campaign-end"

    def test_metrics_snapshot_is_the_final_event(self, traced_run):
        _result, events = traced_run
        assert events[-1]["kind"] == "metrics"
        assert "counters" in events[-1]["metrics"]


class TestCachedRuns:
    def test_cache_hits_get_a_run_span_but_no_phase_children(self, tmp_path):
        campaign = Campaign(_grid(), name="c", results_dir=tmp_path)
        campaign.run(trace=True)
        result = campaign.run(trace=True)  # warm: every run a cache hit
        events = load_events(result.events_path)
        runs = _spans(events, "run")
        assert len(runs) == len(result.records)
        assert all(s["attrs"]["cached"] for s in runs)
        for name in ("setup", "local", "referee", "global"):
            assert _spans(events, name) == []

    def test_cache_metrics_split_hits_from_executions(self, tmp_path):
        campaign = Campaign(_grid(), name="c", results_dir=tmp_path)
        campaign.run()
        result = campaign.run()
        counters = result.metrics["counters"]
        assert counters["runs_cached"] == len(result.records)
        assert "runs_started" not in counters
        assert result.metrics["gauges"]["cache_hit_ratio"] == 1.0


class TestMetricsAlwaysOn:
    def test_untraced_run_still_collects_and_persists_metrics(self, tmp_path):
        result = Campaign(_grid(), name="c", results_dir=tmp_path).run()
        assert result.events_path is None
        assert not (tmp_path / "c.events.jsonl").exists()
        counters = result.metrics["counters"]
        assert counters["runs_started"] == len(result.records)
        assert counters["runs_completed{status=\"ok\"}"] == len(result.records)
        assert counters["bits_total"] == sum(
            r.total_message_bits for r in result.records
        )
        sidecar = load_metrics_file(result.metrics_path)
        assert sidecar["campaign"] == "c"
        assert sidecar["metrics"] == result.metrics

    def test_unpersisted_run_keeps_metrics_in_memory_only(self):
        result = Campaign(_grid(), name="c", results_dir=None).run()
        assert result.metrics["counters"]["runs_started"] == len(result.records)
        assert result.metrics_path is None

    def test_worker_series_track_the_executing_workers(self, tmp_path):
        result = Campaign(_grid(), name="c", results_dir=tmp_path).run()
        worker_tasks = {
            k: v for k, v in result.metrics["counters"].items()
            if k.startswith("worker_tasks{")
        }
        assert sum(worker_tasks.values()) == len(result.records)
        assert result.metrics["histograms"]["run_seconds"]["count"] == len(
            result.records
        )

    def test_final_snapshot_lives_in_the_sidecar_only(self, tmp_path):
        result = Campaign(_grid(), name="c", results_dir=tmp_path).run()
        manifest = json.loads((tmp_path / "c.manifest.json").read_text())
        assert "metrics" not in manifest
        assert load_metrics_file(result.metrics_path)["metrics"] == result.metrics

    def test_summary_names_the_sidecar_files(self, tmp_path):
        result = Campaign(_grid(), name="c", results_dir=tmp_path).run(trace=True)
        summary = result.summary()
        assert summary["events"] == str(result.events_path)
        assert summary["metrics"] == str(result.metrics_path)


class TestShardedTrace:
    def test_single_shard_invocation_writes_per_shard_sidecars(self, tmp_path):
        campaign = Campaign(_grid(6), name="c", results_dir=tmp_path,
                            use_cache=False)
        result = campaign.run(shards=3, shard_index=1, trace=True)
        assert result.events_path == tmp_path / "c.shard-1-of-3.events.jsonl"
        assert result.metrics_path == tmp_path / "c.shard-1-of-3.metrics.json"
        events = load_events(result.events_path)
        shard_spans = _spans(events, "shard")
        assert len(shard_spans) == 1
        assert shard_spans[0]["attrs"] == {"shard": 1, "shards": 3}
        assert len(_spans(events, "run")) == len(result.records)

    def test_all_shards_in_process_trace_to_one_stream(self, tmp_path):
        campaign = Campaign(_grid(6), name="c", results_dir=tmp_path,
                            use_cache=False)
        result = campaign.run(shards=3, trace=True)
        events = load_events(tmp_path / "c.events.jsonl")
        assert len(_spans(events, "shard")) == 3
        assert len(_spans(events, "run")) == len(result.records)

    def test_done_markers_carry_no_metrics(self, tmp_path):
        campaign = Campaign(_grid(6), name="c", results_dir=tmp_path,
                            use_cache=False)
        result = campaign.run(shards=2, shard_index=0)
        done = json.loads((tmp_path / "c.shard-0-of-2.done").read_text())
        assert "metrics" not in done
        sidecar = load_metrics_file(tmp_path / "c.shard-0-of-2.metrics.json")
        assert sidecar["metrics"]["counters"]["runs_started"] == done["records"] \
            == len(result.records)


class TestTraceErrors:
    def test_trace_without_results_dir_is_refused(self):
        campaign = Campaign(_grid(), name="c", results_dir=None)
        with pytest.raises(ObsError, match="results_dir"):
            campaign.run(trace=True)


class TestWorkerCrashContext:
    def test_broken_pool_wraps_in_worker_crash_with_context(
        self, tmp_path, monkeypatch
    ):
        def broken(spec):
            raise concurrent.futures.process.BrokenProcessPool("worker died")

        monkeypatch.setattr(campaign_module, "execute_run", broken)
        campaign = Campaign(_grid(1), name="c", results_dir=tmp_path,
                            use_cache=False)
        spec = campaign.specs()[0]
        with pytest.raises(WorkerCrash) as excinfo:
            campaign.run()
        err = excinfo.value
        assert err.spec_hash == spec.content_hash()
        assert err.shard_index is None
        assert spec.content_hash() in str(err)
        assert isinstance(
            err.__cause__, concurrent.futures.process.BrokenProcessPool
        )

    def test_task_exceptions_escape_unchanged_with_a_context_note(
        self, tmp_path, monkeypatch
    ):
        class TaskBug(ValueError):
            pass

        def buggy(spec):
            raise TaskBug("bad decode")

        monkeypatch.setattr(campaign_module, "execute_run", buggy)
        campaign = Campaign(_grid(1), name="c", results_dir=tmp_path,
                            use_cache=False)
        spec = campaign.specs()[0]
        with pytest.raises(TaskBug) as excinfo:  # type preserved, not wrapped
            campaign.run()
        notes = getattr(excinfo.value, "__notes__", [])
        assert any(spec.content_hash() in note for note in notes)

    def test_crashes_count_and_mark_even_untraced(self, tmp_path, monkeypatch):
        state = {"left": 2}

        def crash_after_two(spec):
            if state["left"] <= 0:
                raise RuntimeError("boom")
            state["left"] -= 1
            return execute_run(spec)

        monkeypatch.setattr(campaign_module, "execute_run", crash_after_two)
        campaign = Campaign(_grid(4), name="c", results_dir=tmp_path,
                            use_cache=False)
        with pytest.raises(RuntimeError):
            campaign.run(trace=True)
        # The tracer closed on the way out: the crash mark is durable.
        events, _torn, _good = load_partial_events(tmp_path / "c.events.jsonl")
        crashes = [e for e in events
                   if e["kind"] == "mark" and e["name"] == "worker-crash"]
        assert len(crashes) == 1
        assert "RuntimeError" in crashes[0]["attrs"]["error"]
