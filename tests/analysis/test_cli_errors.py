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
        assert "identical" in capsys.readouterr().out

    def test_diff_mismatch_exits_one(self, capsys, smoke_jsonl, tmp_path):
        lines = smoke_jsonl.read_text().splitlines()
        record = json.loads(lines[0])
        record["result"]["output_digest"] = "drifted"
        drifted = tmp_path / "drifted.jsonl"
        drifted.write_text("\n".join([json.dumps(record, sort_keys=True)] + lines[1:]) + "\n")
        assert main(["diff", str(smoke_jsonl), str(drifted)]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH output_digest" in out and "DIFFERS" in out

    def test_diff_json_mismatch_exits_one(self, capsys, smoke_jsonl, tmp_path):
        lines = smoke_jsonl.read_text().splitlines()
        record = json.loads(lines[0])
        record["result"]["max_message_bits"] += 1
        drifted = tmp_path / "drifted.jsonl"
        drifted.write_text("\n".join([json.dumps(record, sort_keys=True)] + lines[1:]) + "\n")
        assert main(["diff", str(smoke_jsonl), str(drifted), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["bit_deltas"]

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
