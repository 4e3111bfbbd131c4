"""repro.bench — the declarative performance harness.

The ROADMAP's north star is a system that *runs as fast as the hardware
allows*; this package is where that claim becomes measurable and gateable.
Benchmarks are registered like every other pluggable piece
(``@register(name, kind="benchmark")`` in :mod:`repro.bench.builtin`),
enumerable via ``repro.registry.catalog()`` / ``python -m repro list
--kind benchmark``, and run by one harness::

    from repro.bench import run_suite, write_suite

    report = run_suite(["l0-update", "l0-update-naive"], repeats=5)
    print(report["speedups"])            # {"l0-update": 2.2}
    write_suite(report, "BENCH_PR4.json")

or from the CLI::

    python -m repro bench --json                         # all benchmarks
    python -m repro bench l0-update --repeats 5
    python -m repro bench --gate benchmarks/baselines/bench.json  # exit 1 on regression

Reports carry wall-time statistics (:data:`~repro.model.referee.monotonic_clock`,
summarized by the results layer's :class:`~repro.results.aggregate.RunningStats`),
deterministic work counts / bit counts / result digests, peak RSS, and
production-vs-reference speedup ratios (``l0-update`` times
``repro.sketching.agm.encode`` against the plain ``L0Sampler`` twin).  :func:`check_suite` gates a report
against a frozen baseline with the same
:class:`~repro.results.baseline.BaselineCheck` verdict CI already consumes.
"""

from repro.bench.harness import (
    BENCH_BASELINE_VERSION,
    BENCH_VERSION,
    DEFAULT_OUTPUT,
    BenchCase,
    BenchCheck,
    check_suite,
    freeze_suite,
    load_bench_baseline,
    peak_rss_kb,
    run_case,
    run_suite,
    write_suite,
)

__all__ = [
    "BENCH_BASELINE_VERSION",
    "BENCH_VERSION",
    "DEFAULT_OUTPUT",
    "BenchCase",
    "BenchCheck",
    "check_suite",
    "freeze_suite",
    "load_bench_baseline",
    "peak_rss_kb",
    "run_case",
    "run_suite",
    "write_suite",
]
