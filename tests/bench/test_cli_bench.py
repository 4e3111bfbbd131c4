"""CLI ``bench``: exit codes (0/1/2), --json schema, output and gate flags.

Same contract as every other subcommand (PR 2's convention): 0 success,
1 gate failure, 2 usage error; ``main()`` never leaks ``SystemExit`` or a
traceback for user errors.
"""

import json

import pytest

from repro.bench import BENCH_VERSION
from repro.cli import main

ARGS = ["bench", "bits-pack", "bits-pack-naive", "--scale", "0.1",
        "--repeats", "1"]


def _run(capsys, *extra, expect=0):
    code = main(ARGS + list(extra))
    out = capsys.readouterr()
    assert code == expect, out.err or out.out
    return out


@pytest.fixture()
def out_json(tmp_path):
    return tmp_path / "BENCH_PR4.json"


class TestSuccessPaths:
    def test_human_output(self, capsys, out_json):
        out = _run(capsys, "--output", str(out_json))
        assert "bits-pack" in out.out and "speedup" in out.out
        assert f"report -> {out_json}" in out.out
        assert out_json.exists()

    def test_json_schema(self, capsys, out_json):
        out = _run(capsys, "--output", str(out_json), "--json")
        payload = json.loads(out.out)
        assert payload["bench_version"] == BENCH_VERSION
        assert payload["suite"] == ["bits-pack", "bits-pack-naive"]
        for entry in payload["results"].values():
            assert {"ops", "bits", "digest", "wall_seconds", "ops_per_second",
                    "peak_rss_kb", "meta"} == set(entry)
        assert "bits-pack" in payload["speedups"]
        # the emitted file carries the same deterministic fields
        on_disk = json.loads(out_json.read_text())
        assert on_disk["results"].keys() == payload["results"].keys()
        for name in on_disk["results"]:
            assert on_disk["results"][name]["digest"] == \
                payload["results"][name]["digest"]

    def test_output_dash_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _run(capsys, "--output", "-")
        assert not list(tmp_path.iterdir())

    def test_default_output_is_bench_pr4_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _run(capsys)
        assert (tmp_path / "BENCH_PR4.json").exists()

    def test_freeze_writes_baseline(self, capsys, out_json, tmp_path):
        baseline = tmp_path / "baseline.json"
        _run(capsys, "--output", str(out_json), "--freeze", str(baseline))
        frozen = json.loads(baseline.read_text())
        assert set(frozen["pinned"]) == {"bits-pack", "bits-pack-naive"}


class TestGatePaths:
    def test_gate_passes_against_fresh_freeze(self, capsys, out_json, tmp_path):
        baseline = tmp_path / "baseline.json"
        _run(capsys, "--output", str(out_json), "--freeze", str(baseline))
        out = _run(capsys, "--output", str(out_json), "--gate", str(baseline))
        assert "passed" in out.out

    def test_gate_regression_exits_one(self, capsys, out_json, tmp_path):
        baseline = tmp_path / "baseline.json"
        _run(capsys, "--output", str(out_json), "--freeze", str(baseline))
        frozen = json.loads(baseline.read_text())
        frozen["pinned"]["bits-pack"]["ops"] += 1
        baseline.write_text(json.dumps(frozen))
        out = _run(capsys, "--output", str(out_json), "--gate", str(baseline),
                   expect=1)
        assert "FAIL [result]" in out.out and "FAILED" in out.out

    def test_gate_regression_json_exits_one(self, capsys, out_json, tmp_path):
        baseline = tmp_path / "baseline.json"
        _run(capsys, "--output", str(out_json), "--freeze", str(baseline))
        frozen = json.loads(baseline.read_text())
        frozen["min_speedup"] = {"bits-pack": 10_000.0}
        baseline.write_text(json.dumps(frozen))
        out = _run(capsys, "--output", str(out_json), "--gate", str(baseline),
                   "--json", expect=1)
        payload = json.loads(out.out)
        assert payload["gate"]["passed"] is False
        assert payload["gate"]["failures"][0]["kind"] == "speedup"

    def test_gate_missing_baseline_exits_two(self, capsys, out_json, tmp_path):
        out = _run(capsys, "--output", str(out_json), "--gate",
                   str(tmp_path / "absent.json"), expect=2)
        assert "does not exist" in out.err


class TestUsageErrors:
    def test_unknown_benchmark_exits_two(self, capsys):
        code = main(["bench", "l0-updaet", "--output", "-"])
        out = capsys.readouterr()
        assert code == 2
        assert "did you mean 'l0-update'" in out.err
        assert "Traceback" not in out.err

    def test_bad_scale_exits_two(self, capsys):
        assert main(["bench", "bits-pack", "--scale", "0", "--output", "-"]) == 2
        assert "scale" in capsys.readouterr().err

    def test_bad_repeats_exits_two(self, capsys):
        assert main(["bench", "bits-pack", "--repeats", "0", "--output", "-"]) == 2
        assert "repeats" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["bench", "--frobnicate"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_time_tolerance_is_a_usage_error(self, capsys):
        # a bench baseline pins no wall time, and no gate takes a timing flag
        assert main(["bench", "--time-tolerance", "2", "--output", "-"]) == 2
        assert "unrecognized arguments: --time-tolerance" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["bench", "--help"]) == 0
        assert "--gate" in capsys.readouterr().out
