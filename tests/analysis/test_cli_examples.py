"""Smoke tests for the CLI and the example scripts (deliverable b)."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "EXP-T5" in out and "EXP-SKETCH" in out
        assert "smoke" in out            # builtin campaigns are listed too
        assert "random_planar" in out    # so are graph families ...
        assert "degeneracy" in out       # ... and protocols

    def test_list_json_is_the_catalog(self, capsys):
        assert main(["list", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert set(catalog) == {"campaign", "experiment", "graph_family",
                                "protocol", "span"}
        assert "EXP-T5" in catalog["experiment"]
        assert "smoke" in catalog["campaign"]
        deg = catalog["protocol"]["degeneracy"]
        assert "reconstruction" in deg["capabilities"]
        assert "k" in deg["params"]

    def test_list_json_is_byte_stable(self, capsys):
        assert main(["list", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["list", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_list_kind_filter(self, capsys):
        assert main(["list", "--kind", "protocol", "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"protocol"}

    def test_experiment_subcommand(self, capsys):
        assert main(["experiment", "EXP-DEGEN"]) == 0
        assert "degeneracy of the paper's graph classes" in capsys.readouterr().out

    def test_experiment_json(self, capsys):
        assert main(["experiment", "EXP-DEGEN", "--json"]) == 0
        tables = json.loads(capsys.readouterr().out)
        assert tables[0]["id"] == "EXP-DEGEN"
        assert tables[0]["headers"] and tables[0]["rows"]

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "EXP-NOPE"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err

    def test_campaign_builtin(self, capsys, tmp_path):
        assert main(["campaign", "smoke", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign smoke" in out
        assert (tmp_path / "smoke.jsonl").exists()

    def test_campaign_json_summary(self, capsys, tmp_path):
        assert main(["campaign", "smoke", "--results-dir", str(tmp_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["campaign"] == "smoke"
        assert summary["runs"] == 8

    def test_campaign_from_spec_file(self, capsys, tmp_path):
        spec = {"name": "cli-spec", "scenarios": [
            {"name": "f", "family": "random_forest", "sizes": [12],
             "protocol": "forest", "seeds": [0]}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["campaign", str(path), "--results-dir", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["runs"] == 1

    def test_campaign_unknown(self, capsys):
        assert main(["campaign", "definitely-not-a-campaign"]) == 2
        assert "neither a builtin" in capsys.readouterr().err

    def test_campaign_zero_jobs_is_usage_error(self, capsys, tmp_path):
        for executor in ("serial", "thread"):
            assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                         "--executor", executor, "--jobs", "0"]) == 2
            assert "jobs must be >= 1" in capsys.readouterr().err

    def test_campaign_serial_jobs_prints_note(self, capsys, tmp_path):
        assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                     "--jobs", "4"]) == 0
        assert "no effect with the serial executor" in capsys.readouterr().err

    def test_campaign_wrong_typed_spec_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "x", "scenarios": [
            {"name": "a", "family": "path", "sizes": 5, "protocol": "forest"}]}))
        assert main(["campaign", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_campaign_thread_executor(self, capsys, tmp_path):
        assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                     "--executor", "thread", "--jobs", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["executor"] == "thread"


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "session_quickstart.py",
    "datacenter_audit.py",
    "impossibility_tour.py",
    "connectivity_frontier.py",
])
def test_example_runs_clean(script):
    """Each example exits 0 and prints something sensible."""
    path = EXAMPLES / script
    assert path.exists(), f"missing example {script}"
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(proc.stdout) > 100
    assert "FAILED" not in proc.stdout
