"""repro.bench harness: schema, registry integration, baseline gating."""

import json

import pytest

from repro import registry
from repro.bench import (
    BENCH_BASELINE_VERSION,
    BENCH_VERSION,
    BenchCase,
    check_suite,
    freeze_suite,
    load_bench_baseline,
    peak_rss_kb,
    run_case,
    run_suite,
    write_suite,
)
from repro.errors import BenchError, UnknownRegistryEntry
from repro.results.baseline import BaselineCheck

#: A tiny deterministic subset used throughout (fast even at repeats > 1).
SUBSET = ("bits-pack", "bits-pack-naive")

RESULT_KEYS = {"ops", "bits", "digest", "wall_seconds", "ops_per_second",
               "peak_rss_kb", "meta"}
STAT_KEYS = {"count", "min", "mean", "max", "p95"}


@pytest.fixture(scope="module")
def report():
    return run_suite(SUBSET, scale=0.1, repeats=2)


class TestRegistryIntegration:
    def test_benchmark_kind_registered(self):
        assert "benchmark" in registry.kinds()
        assert registry.BENCHMARK is registry.registry_for("benchmark")

    def test_builtin_suite_enumerable_via_catalog(self):
        catalog = registry.catalog()["benchmark"]
        pairs = ("aggregate-incremental", "bits-pack", "l0-update", "trace-overhead")
        assert set(catalog) == {n for p in pairs for n in (p, f"{p}-naive")}
        # every builtin takes the harness's one context knob
        for meta in catalog.values():
            assert list(meta["params"]) == ["scale"]

    def test_every_naive_twin_has_its_optimized_partner(self):
        names = set(registry.BENCHMARK.names())
        for name in names:
            if name.endswith("-naive"):
                assert name[: -len("-naive")] in names

    def test_factories_build_bench_cases(self):
        case = registry.BENCHMARK.build("bits-pack", scale=0.1)
        assert isinstance(case, BenchCase)
        payload = case.op()
        assert payload["ops"] > 0


class TestReportSchema:
    def test_top_level_shape(self, report):
        assert report["bench_version"] == BENCH_VERSION
        assert report["scale"] == 0.1 and report["repeats"] == 2
        assert report["suite"] == sorted(SUBSET)
        assert set(report["results"]) == set(SUBSET)

    def test_result_entries(self, report):
        for entry in report["results"].values():
            assert set(entry) == RESULT_KEYS
            assert set(entry["wall_seconds"]) == STAT_KEYS
            assert entry["wall_seconds"]["count"] == 2
            assert entry["ops"] > 0 and entry["bits"] >= 0
            assert entry["digest"]
            assert entry["peak_rss_kb"] >= 0

    def test_speedup_pairs_reported(self, report):
        assert set(report["speedups"]) == {"bits-pack"}
        assert report["speedups"]["bits-pack"] > 0

    def test_deterministic_fields_reproduce(self, report):
        again = run_suite(SUBSET, scale=0.1, repeats=1)
        for name in SUBSET:
            for key in ("ops", "bits", "digest"):
                assert again["results"][name][key] == report["results"][name][key]

    def test_write_suite_round_trips(self, report, tmp_path):
        path = write_suite(report, tmp_path / "bench.json")
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report))  # JSON-clean: no exotic types

    def test_peak_rss_positive_on_posix(self):
        assert peak_rss_kb() > 0


class TestArgumentValidation:
    def test_unknown_benchmark_suggests(self):
        with pytest.raises(UnknownRegistryEntry, match="did you mean 'l0-update'"):
            run_suite(["l0-updaet"], repeats=1)

    def test_bad_scale_and_repeats(self):
        with pytest.raises(BenchError, match="scale"):
            run_suite(SUBSET, scale=0)
        with pytest.raises(BenchError, match="repeats"):
            run_suite(SUBSET, repeats=0)

    def test_op_must_return_ops(self):
        with pytest.raises(BenchError, match="'ops'"):
            run_case(BenchCase(op=lambda: {"bits": 3}), repeats=1)


class TestBaselineGate:
    def test_freeze_then_check_roundtrip(self, report, tmp_path):
        path = freeze_suite(report, tmp_path / "bench.json")
        baseline = load_bench_baseline(path)
        assert baseline["bench_baseline_version"] == BENCH_BASELINE_VERSION
        assert set(baseline["pinned"]) == set(SUBSET)
        verdict = check_suite(report, path)
        assert verdict.passed and verdict.runs_checked == len(SUBSET)

    def test_refreeze_carries_min_speedup_floors_forward(self, report, tmp_path):
        """A re-freeze must never silently disarm the speedup gate."""
        path = freeze_suite(report, tmp_path / "bench.json")
        baseline = json.loads(path.read_text())
        assert baseline["min_speedup"] == {}  # fresh freeze: no floors yet
        baseline["min_speedup"] = {"bits-pack": 1.1}
        path.write_text(json.dumps(baseline))
        freeze_suite(report, path)  # refresh over the declared floors
        assert json.loads(path.read_text())["min_speedup"] == {"bits-pack": 1.1}

    def test_digest_drift_fails(self, report, tmp_path):
        path = freeze_suite(report, tmp_path / "bench.json")
        baseline = json.loads(path.read_text())
        baseline["pinned"]["bits-pack"]["digest"] = "drifted"
        verdict = check_suite(report, baseline)
        assert not verdict.passed
        assert verdict.failures[0].kind == "result"

    def test_missing_and_extra_benchmarks_flagged(self, report, tmp_path):
        path = freeze_suite(report, tmp_path / "bench.json")
        baseline = json.loads(path.read_text())
        baseline["pinned"]["phantom"] = {"ops": 1, "bits": 0, "digest": "x"}
        del baseline["pinned"]["bits-pack-naive"]
        kinds = sorted(f.kind for f in check_suite(report, baseline).failures)
        assert kinds == ["extra-bench", "missing-bench"]

    def test_wall_times_never_gate(self, report, tmp_path):
        path = freeze_suite(report, tmp_path / "bench.json")
        baseline = json.loads(path.read_text())
        assert "wall_seconds_mean" not in baseline
        # an older baseline still carries mean wall times; it keeps loading,
        # and even wall times far below this run's do not fail the gate
        baseline["wall_seconds_mean"] = {name: 1e-9 for name in SUBSET}
        verdict = check_suite(report, baseline)
        assert verdict.passed
        assert isinstance(verdict, BaselineCheck)

    def test_min_speedup_floor(self, report, tmp_path):
        path = freeze_suite(report, tmp_path / "bench.json")
        baseline = json.loads(path.read_text())
        baseline["min_speedup"] = {"bits-pack": 10_000.0}
        verdict = check_suite(report, baseline)
        assert any(f.kind == "speedup" for f in verdict.failures)
        baseline["min_speedup"] = {"nonexistent": 1.0}
        verdict = check_suite(report, baseline)
        assert any("missing" in f.detail for f in verdict.failures)

    def test_scale_mismatch_refused(self, report, tmp_path):
        path = freeze_suite(report, tmp_path / "bench.json")
        other = run_suite(["bits-pack"], scale=0.2, repeats=1)
        with pytest.raises(BenchError, match="scale"):
            check_suite(other, path)

    def test_malformed_baselines_refused(self, tmp_path):
        with pytest.raises(BenchError, match="does not exist"):
            load_bench_baseline(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BenchError, match="not valid JSON"):
            load_bench_baseline(bad)
        with pytest.raises(BenchError, match="bench_baseline_version"):
            load_bench_baseline({"pinned": {"x": {}}})
        with pytest.raises(BenchError, match="pinned"):
            load_bench_baseline({"bench_baseline_version": 1})
        with pytest.raises(BenchError, match="missing pinned field"):
            load_bench_baseline({"bench_baseline_version": 1,
                                 "pinned": {"x": {"ops": 1}}})

    def test_freeze_refuses_empty_report(self, tmp_path):
        with pytest.raises(BenchError, match="zero results"):
            freeze_suite({"results": {}}, tmp_path / "b.json")
