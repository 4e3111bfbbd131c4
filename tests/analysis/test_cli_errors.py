"""Exit-code contract of the CLI: 0 success, 1 gate failure, 2 usage error.

Every path returns a code — ``main()`` never lets argparse's ``SystemExit``
escape, and never prints a traceback for user errors.
"""

import json

import pytest

from repro.cli import main
from repro.engine import builtin_campaign
from repro.results import freeze, load_records


@pytest.fixture(scope="module")
def smoke_jsonl(tmp_path_factory):
    results_dir = tmp_path_factory.mktemp("cli-smoke")
    return builtin_campaign("smoke", results_dir=results_dir).run().jsonl_path


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'frobnicate'" in err
        assert "Traceback" not in err

    def test_malformed_json_flag(self, capsys):
        assert main(["list", "--json=yes"]) == 2
        assert "--json" in capsys.readouterr().err

    def test_malformed_json_flag_on_report(self, capsys, smoke_jsonl):
        assert main(["report", str(smoke_jsonl), "--json=1"]) == 2
        assert "--json" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["list", "--frobnicate"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["report", "--help"]) == 0
        assert "--by" in capsys.readouterr().out

    def test_bare_experiment_id_is_usage_error(self, capsys):
        assert main(["EXP-NOPE"]) == 2
        assert "invalid choice: 'EXP-NOPE'" in capsys.readouterr().err

    def test_baseline_without_action(self, capsys):
        assert main(["baseline"]) == 2
        assert "an action is required" in capsys.readouterr().err

    def test_baseline_unknown_action(self, capsys):
        assert main(["baseline", "melt"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["merge", "smoke", "--compact"],
        ["store", "compact", "results/smoke.jsonl"],
        ["store", "verify", "results/smoke.jsonl"],
        ["store", "read", "results/smoke.jsonl"],
    ])
    def test_removed_store_surfaces_are_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err


class TestReportPaths:
    def test_report_missing_file(self, capsys, tmp_path):
        # A missing records file is a domain condition (the campaign has
        # not merged yet), not a usage error: exit 1, never a traceback.
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 1
        assert "has not written" in capsys.readouterr().err

    def test_report_malformed_jsonl(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        assert main(["report", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_report_schema_invalid_record(self, capsys, tmp_path, smoke_jsonl):
        record = json.loads(smoke_jsonl.read_text().splitlines()[0])
        record["surprise"] = 1
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert main(["report", str(path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_report_unknown_axis(self, capsys, smoke_jsonl):
        assert main(["report", str(smoke_jsonl), "--by", "colour"]) == 2
        assert "unknown group-by axis" in capsys.readouterr().err

    def test_report_ok(self, capsys, smoke_jsonl):
        assert main(["report", str(smoke_jsonl)]) == 0
        assert "protocol" in capsys.readouterr().out

    def test_report_json_deterministic(self, capsys, smoke_jsonl):
        assert main(["report", str(smoke_jsonl), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["report", str(smoke_jsonl), "--json"]) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["records"] == 8


class TestDiffPaths:
    def test_diff_missing_file(self, capsys, smoke_jsonl, tmp_path):
        assert main(["diff", str(smoke_jsonl), str(tmp_path / "absent.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_diff_identical_exits_zero(self, capsys, smoke_jsonl):
        assert main(["diff", str(smoke_jsonl), str(smoke_jsonl)]) == 0
        assert "passed" in capsys.readouterr().out

    def test_diff_mismatch_exits_one(self, capsys, smoke_jsonl, tmp_path):
        lines = smoke_jsonl.read_text().splitlines()
        record = json.loads(lines[0])
        record["result"]["output_digest"] = "drifted"
        drifted = tmp_path / "drifted.jsonl"
        drifted.write_text("\n".join([json.dumps(record, sort_keys=True)] + lines[1:]) + "\n")
        assert main(["diff", str(smoke_jsonl), str(drifted)]) == 1
        out = capsys.readouterr().out
        assert "FAIL [result]" in out and "output_digest" in out and "FAILED" in out

    def test_diff_json_mismatch_exits_one(self, capsys, smoke_jsonl, tmp_path):
        lines = smoke_jsonl.read_text().splitlines()
        record = json.loads(lines[0])
        record["result"]["max_message_bits"] += 1
        drifted = tmp_path / "drifted.jsonl"
        drifted.write_text("\n".join([json.dumps(record, sort_keys=True)] + lines[1:]) + "\n")
        assert main(["diff", str(smoke_jsonl), str(drifted), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert [f["kind"] for f in payload["failures"]] == ["bits"]

    def test_diff_json_is_the_baseline_check_verdict(self, capsys, smoke_jsonl, tmp_path):
        lines = smoke_jsonl.read_text().splitlines()
        record = json.loads(lines[0])
        record["result"]["output_digest"] = "drifted"
        record["timing"]["wall_seconds"] = 1e6  # timing noise must not leak
        drifted = tmp_path / "drifted.jsonl"
        drifted.write_text("\n".join([json.dumps(record, sort_keys=True)] + lines[1:]) + "\n")
        assert main(["diff", str(smoke_jsonl), str(drifted), "--json"]) == 1
        diffed = json.loads(capsys.readouterr().out)
        baseline = freeze(load_records(smoke_jsonl), "a", baselines_dir=tmp_path)
        assert main(["baseline", "check", str(drifted), str(baseline), "--json"]) == 1
        assert diffed == json.loads(capsys.readouterr().out)
        assert [f["kind"] for f in diffed["failures"]] == ["result"]

    def test_diff_time_tolerance_is_a_usage_error(self, capsys, smoke_jsonl):
        assert main(["diff", str(smoke_jsonl), str(smoke_jsonl),
                     "--time-tolerance", "2"]) == 2
        assert "unrecognized arguments: --time-tolerance" in capsys.readouterr().err

    def test_diff_bad_tolerance(self, capsys, smoke_jsonl):
        assert main(["diff", str(smoke_jsonl), str(smoke_jsonl),
                     "--bits-tolerance", "-1"]) == 2
        assert "bits_tolerance" in capsys.readouterr().err


class TestBaselinePaths:
    def test_freeze_then_check_roundtrip(self, capsys, smoke_jsonl, tmp_path):
        assert main(["baseline", "freeze", str(smoke_jsonl), "--name", "smoke",
                     "--dir", str(tmp_path)]) == 0
        assert "-> " in capsys.readouterr().out
        assert main(["baseline", "check", str(smoke_jsonl),
                     str(tmp_path / "smoke.json")]) == 0
        assert "passed" in capsys.readouterr().out

    def test_check_failure_exits_one(self, capsys, smoke_jsonl, tmp_path):
        records = load_records(smoke_jsonl)
        records[0]["result"]["output_digest"] = "drifted"
        baseline = freeze(records, "drifted", baselines_dir=tmp_path)
        assert main(["baseline", "check", str(smoke_jsonl), str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "FAIL [result]" in out and "FAILED" in out

    def test_check_failure_json_exits_one(self, capsys, smoke_jsonl, tmp_path):
        records = load_records(smoke_jsonl)[:-1]  # shrink the grid
        baseline = freeze(records, "small", baselines_dir=tmp_path)
        assert main(["baseline", "check", str(smoke_jsonl), str(baseline),
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["failures"][0]["kind"] == "extra-run"

    def test_check_missing_baseline(self, capsys, smoke_jsonl, tmp_path):
        assert main(["baseline", "check", str(smoke_jsonl),
                     str(tmp_path / "absent.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_freeze_missing_records(self, capsys, tmp_path):
        assert main(["baseline", "freeze", str(tmp_path / "absent.jsonl"),
                     "--name", "x", "--dir", str(tmp_path)]) == 2
        assert "does not exist" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe not utf-8\n"


class TestOneErrorPolicy:
    """``main()`` maps a ReproError or an OSError to one ``error:`` line
    and exit 2, lets a BrokenPipeError through, and leaves every other
    exception to crash with its traceback."""

    def test_campaign_on_a_directory(self, capsys, tmp_path):
        assert main(["campaign", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_campaign_results_dir_is_a_file(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.write_text("")
        assert main(["campaign", "smoke", "--results-dir", str(results),
                     "--no-progress"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("verb", ["report", "diff", "baseline check"])
    def test_results_verbs_on_non_utf8_records(self, verb, capsys, tmp_path,
                                               smoke_jsonl):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(NOT_UTF8)
        other = {"report": [], "diff": [str(smoke_jsonl)],
                 "baseline check": [str(tmp_path / "unused.json")]}[verb]
        assert main(verb.split() + [str(bad)] + other) == 2
        err = capsys.readouterr().err
        assert "bad.jsonl:1: not valid JSON" in err and "Traceback" not in err

    def test_bench_gate_on_non_utf8_baseline(self, capsys, tmp_path):
        bad = tmp_path / "bench.json"
        bad.write_bytes(NOT_UTF8)
        assert main(["bench", "bits-pack", "--scale", "0.1", "--repeats", "1",
                     "--output", "-", "--gate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "is not valid JSON" in err and "Traceback" not in err

    def test_submit_follow_when_the_daemon_goes_away(self, capsys,
                                                     monkeypatch):
        from repro.errors import ServeError
        from repro.serve.client import RemoteJob, ServeClient

        view = {"id": "j000001", "name": "smoke", "shards": 1,
                "priority": "normal", "state": "queued"}

        def submit(self, *args, **kwargs):
            return RemoteJob(self, view)

        def gone(self, job_id):
            raise ServeError("cannot reach the repro daemon")

        monkeypatch.setattr(ServeClient, "submit", submit)
        monkeypatch.setattr(ServeClient, "job", gone)
        assert main(["submit", "smoke", "--follow",
                     "--url", "http://127.0.0.1:9"]) == 2
        assert "error: cannot reach" in capsys.readouterr().err

    def test_a_bug_keeps_its_traceback(self, monkeypatch):
        import repro.cli

        def bug(args):
            raise ValueError("a bug, not a refusal")

        monkeypatch.setitem(repro.cli._COMMANDS, "list", bug)
        with pytest.raises(ValueError, match="a bug"):
            main(["list"])

    def test_broken_pipe_exits_zero_quietly(self, tmp_path):
        # `python -m repro trace <events> | head -1`: a report far larger
        # than a pipe buffer, so the write meets a closed reader.
        import os
        import subprocess
        import sys

        import repro
        from repro.obs.trace import EVENT_VERSION

        events = tmp_path / "big.events.jsonl"
        with events.open("w") as fh:
            for i in range(5000):
                fh.write(json.dumps({
                    "v": EVENT_VERSION, "kind": "span", "name": "run",
                    "span": i + 1, "parent": None, "t0": 0.0, "dur": 0.25,
                    "attrs": {"n": 8}}) + "\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", str(events),
             "--top", "5000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        with proc:
            assert proc.stdout.readline()  # `head -1`, then hang up
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 0
        assert err == b""
