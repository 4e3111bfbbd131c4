"""CLI observability surface: --trace/--progress, `repro trace`, `repro stats`.

Same conventions as the rest of the CLI battery: exit 0 on success, 2 on
usage/input errors, messages not tracebacks, JSON output parseable and
stable.  The end-to-end case here is the PR's acceptance path — a traced
campaign whose events file feeds `repro trace` and whose metrics sidecar
feeds `repro stats`.
"""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def traced_smoke(tmp_path):
    code = main(["campaign", "smoke", "--results-dir", str(tmp_path),
                 "--trace", "--no-progress"])
    assert code == 0
    return tmp_path


class TestCampaignFlags:
    def test_trace_writes_both_sidecars_and_names_them(self, tmp_path, capsys):
        assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                     "--trace", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "smoke.events.jsonl").exists()
        assert (tmp_path / "smoke.metrics.json").exists()
        assert "events  ->" in out
        assert "metrics ->" in out

    def test_untraced_run_writes_metrics_but_no_events(self, tmp_path):
        assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                     "--no-progress"]) == 0
        assert not (tmp_path / "smoke.events.jsonl").exists()
        assert (tmp_path / "smoke.metrics.json").exists()

    def test_json_summary_carries_the_sidecar_paths(self, tmp_path, capsys):
        assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                     "--trace", "--no-progress", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"].endswith("smoke.events.jsonl")
        assert summary["metrics"].endswith("smoke.metrics.json")

    def test_progress_writes_to_stderr_in_line_mode(self, tmp_path, capsys):
        assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "smoke:" in err
        assert err.rstrip().endswith("done")

    def test_progress_and_no_progress_are_mutually_exclusive(self, tmp_path,
                                                             capsys):
        assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                     "--progress", "--no-progress"]) == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_sharded_trace_smoke_end_to_end(self, tmp_path, capsys):
        # The acceptance scenario: a sharded multi-worker campaign with
        # tracing on, whose events file `repro trace` then renders.
        assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                     "--shards", "3", "--executor", "thread", "--jobs", "3",
                     "--trace", "--no-progress"]) == 0
        assert main(["trace", str(tmp_path / "smoke.events.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "phase-time breakdown" in out


class TestTraceCommand:
    def test_renders_the_three_report_blocks(self, traced_smoke, capsys):
        assert main(["trace", str(traced_smoke / "smoke.events.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "phase-time breakdown" in out
        assert "critical path" in out
        assert "slowest runs" in out
        assert "campaign" in out

    def test_json_report_reconciles_with_the_records(self, traced_smoke, capsys):
        assert main(["trace", str(traced_smoke / "smoke.events.jsonl"),
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        records = [
            json.loads(line) for line in
            (traced_smoke / "smoke.jsonl").read_text().splitlines()
        ]
        phases = {p["name"]: p for p in data["phases"]}
        for key, name in (("local_seconds", "local"),
                          ("referee_seconds", "referee"),
                          ("global_seconds", "global")):
            span_total = phases[name]["total_seconds"]
            # smoke includes violation-status runs that never reach the
            # phases: they appear in neither sum.
            record_total = sum(r["timing"].get(key, 0.0) for r in records)
            assert span_total == record_total
        assert phases["run"]["count"] == len(records)
        assert data["marks"]["campaign-start"] == 1

    def test_top_limits_the_slowest_runs_table(self, traced_smoke, capsys):
        assert main(["trace", str(traced_smoke / "smoke.events.jsonl"),
                     "--json", "--top", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["slowest_runs"]) == 2

    def test_negative_top_is_a_usage_error(self, traced_smoke, capsys):
        events = str(traced_smoke / "smoke.events.jsonl")
        for extra in ([], ["--json"]):
            assert main(["trace", events, "--top", "-1", *extra]) == 2
            err = capsys.readouterr().err
            assert "top must be >= 0, got -1" in err
            assert "Traceback" not in err
        assert main(["trace", events, "--json", "--top", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["slowest_runs"] == []

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.events.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_torn_tail_is_tolerated(self, traced_smoke, capsys):
        ev = traced_smoke / "smoke.events.jsonl"
        with ev.open("ab") as fh:
            fh.write(b'{"v": 1, "kind": "sp')
        assert main(["trace", str(ev)]) == 0
        assert "phase-time breakdown" in capsys.readouterr().out


class TestStatsCommand:
    def test_bare_name_resolves_under_results_dir(self, traced_smoke, capsys):
        assert main(["stats", "smoke",
                     "--results-dir", str(traced_smoke)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_runs_started counter" in out
        assert "repro_cache_hit_ratio" in out
        assert 'repro_runs_completed{status="ok"}' in out

    def test_dotted_name_resolves_under_results_dir(self, traced_smoke, capsys):
        """A dot in a campaign name does not make the argument a path."""
        snapshot = traced_smoke / "smoke.metrics.json"
        (traced_smoke / "sweep.v2.metrics.json").write_bytes(snapshot.read_bytes())
        assert main(["stats", "sweep.v2", "--results-dir", str(traced_smoke)]) == 0
        assert "repro_bits_total" in capsys.readouterr().out

    def test_explicit_path_works_too(self, traced_smoke, capsys):
        assert main(["stats", str(traced_smoke / "smoke.metrics.json")]) == 0
        assert "repro_bits_total" in capsys.readouterr().out

    def test_json_emits_the_raw_snapshot(self, traced_smoke, capsys):
        assert main(["stats", "smoke", "--results-dir", str(traced_smoke),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"] == "smoke"
        assert "counters" in payload["metrics"]

    @pytest.mark.parametrize("metrics", [
        pytest.param({"histograms": {"run_seconds": {"count": 3}}},
                     id="histogram-without-total-min-max"),
        pytest.param({"histograms": {"h": {"count": 1, "total": "1",
                                           "min": 1, "max": 1}}},
                     id="histogram-string-total"),
        pytest.param({"histograms": {"h": [1, 2]}}, id="histogram-not-an-object"),
        pytest.param({"counters": {"a": "zz"}}, id="string-counter"),
        pytest.param({"counters": {"a": True}}, id="boolean-counter"),
        pytest.param({"gauges": {"g": None}}, id="null-gauge"),
    ])
    def test_malformed_series_is_a_usage_error(self, tmp_path, capsys, metrics):
        snapshot = {"counters": {}, "gauges": {}, "histograms": {}, **metrics}
        path = tmp_path / "bad.metrics.json"
        path.write_text(json.dumps({"campaign": "bad", "metrics": snapshot}))
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_snapshot_names_the_fix(self, tmp_path, capsys):
        assert main(["stats", "smoke", "--results-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "run the campaign first" in err
        assert "Traceback" not in err
