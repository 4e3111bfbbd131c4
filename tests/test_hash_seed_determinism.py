"""Outputs must not depend on Python's string-hash salt.

Set and dict iteration order over strings changes with ``PYTHONHASHSEED``,
so a result that leaked that order would differ between machines and runs
even with every public seed fixed.  Each check below runs the same CLI
command in two fresh interpreters with different hash seeds, side by side,
and compares what they print (the sketch experiments) or the records they
persist, with the timing fields stripped (the smoke campaign).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

HASH_SEEDS = ("1", "987654")
SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def _run_under_each_hash_seed(args, root):
    """``python -m repro *args`` once per hash seed, concurrently, each in its
    own working directory ``root/<seed>``; the stdouts."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    for seed in HASH_SEEDS:
        (root / seed).mkdir()
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", *args], cwd=root / seed, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        for seed in HASH_SEEDS
    ]
    results = [proc.communicate(timeout=600) for proc in procs]
    for proc, (_, err) in zip(procs, results):
        assert proc.returncode == 0, err[-2000:]
    return [out for out, _ in results]


@pytest.mark.parametrize("experiment", ["EXP-SKETCH", "EXP-BIP", "EXP-ROUNDS"])
def test_sketch_experiment_json_is_hash_seed_independent(experiment, tmp_path):
    first, second = _run_under_each_hash_seed(["experiment", experiment, "--json"], tmp_path)
    assert json.loads(first)  # a real table, not an empty print
    assert first == second


def test_smoke_records_are_hash_seed_independent(tmp_path):
    _run_under_each_hash_seed(["campaign", "smoke", "--no-cache", "--json"], tmp_path)

    def records(seed):
        lines = (tmp_path / seed / "results" / "smoke.jsonl").read_text().splitlines()
        return [{k: v for k, v in json.loads(line).items() if k != "timing"} for line in lines]

    first, second = (records(seed) for seed in HASH_SEEDS)
    assert len(first) == 8
    assert all(r["result"]["output_digest"] for r in first if r["result"]["status"] == "ok")
    assert first == second
