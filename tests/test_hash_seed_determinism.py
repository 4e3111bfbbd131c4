"""Outputs must not depend on Python's string-hash salt.

Set and dict iteration order over strings changes with ``PYTHONHASHSEED``,
so a result that leaked that order would differ between machines and runs
even with every public seed fixed.  ``tools/determinism_snapshot.py`` (the
same snapshot CI compares across Python versions) runs once per hash seed,
in two fresh interpreters side by side, and the checks below compare what
they wrote: every registered experiment's ``--json`` table and the smoke
campaign's records, each without its timing fields.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import registry
from repro.analysis.experiments import TIMING_COLUMNS

HASH_SEEDS = ("1", "987654")
SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])
SNAPSHOT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "determinism_snapshot.py"


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """``{hash seed: snapshot directory}``, both taken concurrently."""
    root = tmp_path_factory.mktemp("snapshots")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [sys.executable, str(SNAPSHOT), str(root / seed)], cwd=root, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        for seed in HASH_SEEDS
    ]
    results = [proc.communicate(timeout=600) for proc in procs]
    for proc, (_, err) in zip(procs, results):
        assert proc.returncode == 0, err[-2000:]
    return {seed: root / seed for seed in HASH_SEEDS}


def _tables(directory):
    tables = json.loads((directory / "experiments.json").read_text())
    return {table["id"]: table for table in tables}


@pytest.mark.parametrize("experiment", sorted(registry.catalog()["experiment"]))
def test_sketch_experiment_json_is_hash_seed_independent(experiment, snapshots):
    """Every registered experiment, not only the sketch ones the name
    still carries."""
    first, second = (_tables(snapshots[seed])[experiment] for seed in HASH_SEEDS)
    assert first["rows"]  # a real table, not an empty print
    assert not TIMING_COLUMNS & set(first["headers"])
    assert first == second


def test_smoke_records_are_hash_seed_independent(snapshots):
    def records(seed):
        lines = (snapshots[seed] / "smoke.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines]

    first, second = (records(seed) for seed in HASH_SEEDS)
    assert len(first) == 8
    assert all(r["result"]["output_digest"] for r in first if r["result"]["status"] == "ok")
    assert first == second
