"""EXP-ENGINE — serial vs parallel execution of a reconstruction campaign.

The load is the builtin ``bench`` campaign: 32 independent
degeneracy-reconstruction runs (``random_k_degenerate``, n = 512, k = 2),
exactly the workload class the engine exists for.  Each backend runs the
whole campaign with caching disabled; the table records wall-clock time and
speedup over :class:`~repro.engine.executor.SerialExecutor`.

Two checks ride along:

* **parity** — every backend yields the serial run's output digests
  (record-level parity with a plain ``Referee.run`` is a tier-1 test in
  ``tests/engine/test_scenario.py``);
* **speedup** — on a machine with >= 4 cores the process pool must beat
  serial by >= 2x.  On fewer cores there is no parallel hardware to
  demonstrate with, so the assertion is skipped (the table is still
  written); the pool is warmed before timing so worker spawn cost is not
  billed to the campaign.
"""

import os
import time

import pytest

from repro.analysis import format_table
from repro.engine import (
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    builtin_campaign,
)

CORES = os.cpu_count() or 1


def _timed_campaign(executor):
    campaign = builtin_campaign("bench", results_dir=None, use_cache=False)
    t0 = time.perf_counter()
    result = campaign.run(executor)
    elapsed = time.perf_counter() - t0
    assert len(result.records) == 32
    assert all(r.status == "ok" and r.exact for r in result.records)
    return elapsed, result


def test_engine_speedup(write_result):
    serial_s, serial_result = _timed_campaign(SerialExecutor())

    rows = [["serial", 1, round(serial_s, 3), 1.0]]
    timings = {}
    for cls in (ThreadPoolExecutor, ProcessPoolExecutor):
        with cls() as ex:
            ex.map(_identity, range(ex.jobs * 2))  # warm the pool off the clock
            elapsed, result = _timed_campaign(ex)
        digests = [r.output_digest for r in result.records]
        assert digests == [r.output_digest for r in serial_result.records]
        timings[cls.kind] = elapsed
        rows.append([cls.kind, ex.jobs, round(elapsed, 3), round(serial_s / elapsed, 2)])

    title = (
        "EXP-ENGINE  campaign engine: 32x degeneracy reconstruction "
        f"(n=512, k=2) on {CORES} core(s)"
    )
    write_result("EXP-ENGINE", format_table(title, ["executor", "jobs", "seconds", "speedup"], rows))

    if CORES < 4:
        pytest.skip(
            f"only {CORES} core(s) visible: no parallel hardware to demonstrate "
            "the >=2x process-pool speedup on (table still written)"
        )
    assert serial_s / timings["process"] >= 2.0, (
        f"expected >=2x process-pool speedup on {CORES} cores, got "
        f"{serial_s / timings['process']:.2f}x"
    )


def _identity(x):
    return x
