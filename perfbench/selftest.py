#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Every workload runs at a tiny size in both modes, the printed metric
names are checked against ``BENCHMARK.json``, and tampered pins or
records must drive the failed count above zero.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import shutil
import subprocess
import sys
import traceback

import run
from workloads import WORKLOADS, Checker, load_pins

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"reconstruct": (1, 1), "sketch": (1, 1), "ledger": (5, 1)}


def tiny_main(name: str, seed: int, trace: int, pins: dict | None = None) -> dict:
    """``run.main`` on a shrunk workload; the parsed last line of stdout."""
    saved = (WORKLOADS[name], run.MIN_PASSES, run.load_pins)
    base, extra = TINY[name]
    WORKLOADS[name] = dataclasses.replace(saved[0], base=base, extra=extra)
    run.MIN_PASSES = 1
    if pins is not None:
        run.load_pins = lambda: pins
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert run.main(["--workload", name, "--seed", str(seed),
                             "--seconds", "0", "--trace", str(trace)]) == 0
    finally:
        WORKLOADS[name], run.MIN_PASSES, run.load_pins = saved
    return json.loads(out.getvalue().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


def test_every_workload_runs_tiny_in_both_modes():
    for name in WORKLOADS:
        for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result = tiny_main(name, seed=1, trace=trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == list(expected), (name, trace)
            for metric, body in result["metrics"].items():
                assert body["unit"] == expected[metric]
                assert math.isfinite(body["value"]), (name, metric)


def test_second_seed_gives_another_grid_that_passes():
    for w in WORKLOADS.values():
        assert w.draw(1).spec(True) == w.draw(1).spec(True)
        assert w.draw(1).spec(False) != w.draw(2).spec(False), w.name
    assert tiny_main("sketch", seed=2, trace=0)["failed"] == 0


def test_tampered_record_fails():
    pins = load_pins()
    checker = Checker(WORKLOADS["sketch"], pins)
    cell = next(c for c in WORKLOADS["sketch"].cells if c.family == "two_components")
    spec = {"name": "t", "scenarios": cell.scenarios(cell.pool()[:1])}
    record = run.run_campaign(spec, None).records[0].to_json_dict()
    assert checker.check(record) is None
    bits = json.loads(json.dumps(record))
    bits["result"]["total_message_bits"] += 1
    assert checker.check(bits) == "outcome differs from pin"
    connected = json.loads(json.dumps(record))
    connected["result"]["output_digest"] = "True"
    assert checker.check(connected) == "split input reported connected"
    tally = run.Tally(checker)
    tally.records([record, bits], expected=2)
    assert tally.failed == 1 and tally.attempted == 2


def test_tampered_pins_fail_a_whole_run():
    pins = json.loads(json.dumps(load_pins()))
    first = WORKLOADS["reconstruct"].cells[0].name
    pins["reconstruct"][first] = ["0" * 12] * len(pins["reconstruct"][first])
    result = tiny_main("reconstruct", seed=1, trace=0, pins=pins)
    assert not result["correct"] and result["failed"] > 0


def test_exits_nonzero_without_the_program():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [*BENCHMARK["command"], "--workload", "sketch", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout


def test_notes_map_every_metric():
    notes = (HERE / "NOTES.md").read_text()
    for name in [*WORKLOADS, *run.END_TO_END, *run.PER_LAYER]:
        assert f"`{name}`" in notes, name


def main() -> int:
    failures = 0
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    for name, test in tests:
        try:
            test()
        except Exception:
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
