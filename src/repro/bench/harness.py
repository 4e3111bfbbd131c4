"""The benchmark harness: time registered cases, emit stable JSON, gate.

Measurement is a first-class, testable subsystem (the APEX/experimentator
idiom from SNIPPETS.md): benchmarks are *declared* — registered under
``kind="benchmark"`` in :mod:`repro.registry`, enumerable via ``catalog()``
and ``python -m repro list --kind benchmark`` — and this module is the one
place that runs a clock.

One run of :func:`run_suite` produces a JSON-ready report with a stable
schema (``BENCH_VERSION`` pins it)::

    {"bench_version": 1, "scale": 1.0, "repeats": 3,
     "suite": ["bits-pack", ...],
     "results": {"bits-pack": {"ops": ..., "bits": ..., "digest": "...",
                               "wall_seconds": {min/mean/max/p95/count},
                               "ops_per_second": ..., "peak_rss_kb": ...,
                               "meta": {...}}, ...},
     "speedups": {"l0-update": 1.9, ...}}

Wall time comes from :data:`repro.model.referee.monotonic_clock` (the one
clock the whole system uses), spread statistics reuse
:class:`repro.results.aggregate.RunningStats`, and memory is the process peak RSS.
``ops`` / ``bits`` / ``digest`` are *deterministic* — pure functions of the
benchmark inputs — which is what lets a frozen bench baseline gate CI on
any machine: :func:`check_suite` reuses the results layer's
:class:`~repro.results.baseline.BaselineCheck` / ``CheckFailure`` verdict
structures, pinning the deterministic fields exactly, wall time only up to
an explicit relative tolerance, and optimized-vs-naive speedup ratios
against declared floors.

Pairing convention: a benchmark named ``<name>-naive`` is the reference
implementation of ``<name>``; :func:`run_suite` reports the ratio
``naive_min / optimized_min`` under ``speedups[<name>]`` whenever both ran.

RNG hygiene: the harness draws no randomness at all, and builtin benchmark
inputs derive from :func:`~repro.sketching.field.splitmix64` chains — the
global ``random`` module is never touched (pinned by
``tests/bench/test_bench_no_global_rng.py``).
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro import registry
from repro.errors import BenchError
from repro.model.referee import monotonic_clock
from repro.results.aggregate import _PRECISION, RunningStats
from repro.results.baseline import BaselineCheck, CheckFailure

__all__ = [
    "BENCH_VERSION",
    "BENCH_BASELINE_VERSION",
    "DEFAULT_OUTPUT",
    "BenchCase",
    "BenchCheck",
    "peak_rss_kb",
    "run_case",
    "run_suite",
    "write_suite",
    "freeze_suite",
    "load_bench_baseline",
    "check_suite",
]

#: Bumped whenever the report schema changes shape.
BENCH_VERSION = 1

#: Bumped whenever the frozen bench-baseline schema changes shape.
BENCH_BASELINE_VERSION = 1

#: Where ``python -m repro bench`` writes the report by default.
DEFAULT_OUTPUT = pathlib.Path("BENCH_PR4.json")

#: Deterministic per-benchmark fields a bench baseline pins exactly.
_PINNED_FIELDS = ("ops", "bits", "digest")


@dataclass
class BenchCheck(BaselineCheck):
    """A :class:`~repro.results.baseline.BaselineCheck` whose timing slot
    is named honestly: bench gates pin bits exactly, so the inherited
    ``bits_tolerance`` is meaningless here and is dropped from the JSON
    form in favour of ``time_tolerance`` (``None`` when timing never
    gated)."""

    time_tolerance: float | None = None

    def to_dict(self) -> dict:
        out = super().to_dict()
        del out["bits_tolerance"]
        out["time_tolerance"] = self.time_tolerance
        return out


@dataclass(frozen=True)
class BenchCase:
    """One prepared benchmark: a timed operation plus static metadata.

    ``op`` is called once per repetition *on the clock* and returns the
    deterministic payload: ``ops`` (work units performed — required),
    optional ``bits`` (bits processed/produced) and ``digest`` (a stable
    hash of the computed result, the parity hook).  Input construction
    belongs in the registered factory, off the clock.
    """

    op: Callable[[], Mapping[str, Any]]
    meta: Mapping[str, Any] = field(default_factory=dict)


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 where unsupported).

    ``ru_maxrss`` is a process-wide *high-water mark*: it only ever grows,
    so a result entry records the peak as of the moment that case
    finished, not memory attributable to that case alone.  Run a single
    benchmark when you need an isolated ceiling.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak //= 1024
    return peak


def run_case(case: BenchCase, *, repeats: int = 3) -> dict[str, Any]:
    """Time one case ``repeats`` times; return its result entry."""
    if repeats < 1:
        raise BenchError(f"repeats must be >= 1, got {repeats}")
    times: list[float] = []
    payload: Mapping[str, Any] = {}
    for _ in range(repeats):
        t0 = monotonic_clock()
        payload = case.op()
        times.append(monotonic_clock() - t0)
    if not isinstance(payload, Mapping) or "ops" not in payload:
        raise BenchError("a benchmark op must return a mapping with an 'ops' count")
    ops = int(payload["ops"])
    best = min(times)
    wall = RunningStats(floats=True)
    for t in times:
        wall.feed(round(t, _PRECISION))
    return {
        "ops": ops,
        "bits": int(payload.get("bits", 0)),
        "digest": str(payload.get("digest", "")),
        "wall_seconds": wall.stats(),
        "ops_per_second": round(ops / best, 2) if best > 0 else None,
        "peak_rss_kb": peak_rss_kb(),
        "meta": dict(case.meta),
    }


def _speedups(results: Mapping[str, Mapping]) -> dict[str, float]:
    """``{name: naive_min / optimized_min}`` for every ``-naive`` pair run."""
    out: dict[str, float] = {}
    for name in results:
        reference = results.get(f"{name}-naive")
        if reference is None:
            continue
        fast = results[name]["wall_seconds"]["min"]
        slow = reference["wall_seconds"]["min"]
        if fast > 0:
            out[name] = round(slow / fast, 2)
    return out


def run_suite(
    names: Sequence[str] | None = None,
    *,
    scale: float = 1.0,
    repeats: int = 3,
) -> dict[str, Any]:
    """Run benchmarks (all registered ones by default) and build the report.

    ``scale`` multiplies every benchmark's input sizes (factories take it
    as their one engine-supplied parameter); ``repeats`` is the number of
    timed repetitions per case.  Unknown names raise
    :class:`~repro.errors.UnknownRegistryEntry` with a did-you-mean.
    """
    if scale <= 0:
        raise BenchError(f"scale must be > 0, got {scale}")
    if repeats < 1:
        raise BenchError(f"repeats must be >= 1, got {repeats}")
    bench = registry.BENCHMARK
    if names:
        selected = sorted({bench.resolve(name) for name in names})
    else:
        selected = list(bench.names())
    results = {
        name: run_case(bench.build(name, scale=scale), repeats=repeats)
        for name in selected
    }
    return {
        "bench_version": BENCH_VERSION,
        "python": platform.python_version(),
        "scale": scale,
        "repeats": repeats,
        "suite": selected,
        "results": results,
        "speedups": _speedups(results),
    }


def write_suite(report: Mapping[str, Any], path: str | pathlib.Path) -> pathlib.Path:
    """Write a report as stable JSON (sorted keys, indented, newline-final)."""
    path = pathlib.Path(path)
    if path.parent != pathlib.Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return path


# --------------------------------------------------------------------- #
# baseline gating
# --------------------------------------------------------------------- #


def freeze_suite(
    report: Mapping[str, Any], path: str | pathlib.Path, *, name: str | None = None
) -> pathlib.Path:
    """Freeze a report's gateable view to ``path`` (the bench baseline).

    Pins the deterministic fields per benchmark and records mean wall
    seconds (gated only when a tolerance is requested — timing must never
    fail a gate by default, exactly like :mod:`repro.results.diff`).
    ``min_speedup`` floors are operator-declared, so re-freezing over an
    existing baseline carries its floors forward — a refresh must never
    silently disarm the speedup gate.
    """
    path = pathlib.Path(path)
    results = report.get("results", {})
    if not results:
        raise BenchError("cannot freeze a bench baseline from zero results")
    floors: dict = {}
    if path.exists():
        try:
            floors = dict(load_bench_baseline(path).get("min_speedup", {}))
        except BenchError:
            floors = {}  # corrupt predecessor: start clean
    baseline = {
        "bench_baseline_version": BENCH_BASELINE_VERSION,
        "name": name if name is not None else path.stem,
        "scale": report.get("scale", 1.0),
        "pinned": {
            bench: {key: entry[key] for key in _PINNED_FIELDS}
            for bench, entry in sorted(results.items())
        },
        "wall_seconds_mean": {
            bench: entry["wall_seconds"]["mean"]
            for bench, entry in sorted(results.items())
        },
        "min_speedup": floors,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(baseline, sort_keys=True, indent=2) + "\n")
    return path


def load_bench_baseline(source: str | pathlib.Path | Mapping) -> dict:
    """Load and structurally check a frozen bench baseline."""
    if isinstance(source, Mapping):
        baseline = dict(source)
    else:
        path = pathlib.Path(source)
        if not path.exists():
            raise BenchError(f"bench baseline {path} does not exist")
        try:
            baseline = json.loads(path.read_text())
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise BenchError(f"bench baseline {path} is not valid JSON: {exc}") from None
    if not isinstance(baseline, dict):
        raise BenchError("bench baseline must be a JSON object")
    version = baseline.get("bench_baseline_version")
    if version != BENCH_BASELINE_VERSION:
        raise BenchError(
            f"bench_baseline_version must be {BENCH_BASELINE_VERSION}, got {version!r}"
        )
    pinned = baseline.get("pinned")
    if not isinstance(pinned, dict) or not pinned:
        raise BenchError("bench baseline has no 'pinned' benchmark table")
    for bench, entry in pinned.items():
        if not isinstance(entry, dict):
            raise BenchError(f"bench baseline entry {bench!r} is not an object")
        missing = [f for f in _PINNED_FIELDS if f not in entry]
        if missing:
            raise BenchError(
                f"bench baseline entry {bench!r} is missing pinned field(s) {missing}"
            )
    return baseline


def check_suite(
    report: Mapping[str, Any],
    baseline: str | pathlib.Path | Mapping,
    *,
    time_tolerance: float | None = None,
) -> BenchCheck:
    """Gate a fresh report against a frozen bench baseline.

    * every pinned benchmark must be present with identical deterministic
      fields (``ops`` / ``bits`` / ``digest`` — a changed digest means an
      optimization changed *what* is computed, not just how fast);
    * benchmarks the baseline does not know are flagged (freeze again);
    * with ``time_tolerance`` ``R``, each benchmark's mean wall seconds
      must satisfy ``mean <= R * baseline_mean`` (off by default: timing
      is machine-dependent, so it never fails a gate implicitly);
    * declared ``min_speedup`` floors are enforced against the report's
      measured optimized-vs-naive ratios.

    Returns a :class:`BenchCheck` — the results layer's structured verdict
    (same ``failures``/``passed`` shape CI already turns into an exit
    code), with the timing tolerance under its own name.
    """
    if time_tolerance is not None and time_tolerance <= 0:
        raise BenchError(f"time_tolerance must be > 0, got {time_tolerance}")
    baseline = load_bench_baseline(baseline)
    if report.get("scale") != baseline.get("scale"):
        raise BenchError(
            f"bench baseline was frozen at scale {baseline.get('scale')}, "
            f"this report ran at scale {report.get('scale')} — "
            "deterministic op counts are only comparable at equal scale"
        )
    pinned: dict[str, dict] = baseline["pinned"]
    results: Mapping[str, Mapping] = report.get("results", {})

    verdict = BenchCheck(
        baseline_name=str(baseline.get("name", "bench")),
        runs_checked=len(results),
        bits_tolerance=0.0,  # bench pins bits exactly; slot unused
        time_tolerance=time_tolerance,
    )
    for bench in sorted(set(pinned) - set(results)):
        verdict.failures.append(CheckFailure(
            "missing-bench", bench, "pinned benchmark was not run"))
    for bench in sorted(set(results) - set(pinned)):
        verdict.failures.append(CheckFailure(
            "extra-bench", bench, "benchmark has no baseline entry (re-freeze?)"))
    for bench in sorted(set(pinned) & set(results)):
        expected, got = pinned[bench], results[bench]
        for key in _PINNED_FIELDS:
            if got[key] != expected[key]:
                verdict.failures.append(CheckFailure(
                    "result", bench,
                    f"{key}: expected {expected[key]!r}, got {got[key]!r}"))
        if time_tolerance is not None:
            old = baseline.get("wall_seconds_mean", {}).get(bench)
            if isinstance(old, (int, float)) and old > 0:
                new = got["wall_seconds"]["mean"]
                if new > time_tolerance * old:
                    verdict.failures.append(CheckFailure(
                        "time", bench,
                        f"mean wall seconds {new} exceeds {time_tolerance} x "
                        f"baseline {old}"))
    speedups = report.get("speedups", {})
    for bench, floor in sorted(baseline.get("min_speedup", {}).items()):
        measured = speedups.get(bench)
        if measured is None:
            verdict.failures.append(CheckFailure(
                "speedup", bench,
                "no measured speedup (benchmark or its -naive pair missing)"))
        elif measured < floor:
            verdict.failures.append(CheckFailure(
                "speedup", bench,
                f"optimized/naive ratio {measured} below the declared "
                f"floor {floor}"))
    return verdict
