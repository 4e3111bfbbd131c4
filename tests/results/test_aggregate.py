"""Group-by aggregation: stats, rates, and the Lemma-2 normalization."""

import math

import pytest

from repro.errors import SchemaError
from repro.results import (
    RunningStats,
    aggregate,
    aggregate_table,
    normalized_bits,
    percentile,
)


def _stats(values, *, floats=False):
    column = RunningStats(floats=floats)
    for v in values:
        column.feed(v)
    return column.stats()


class TestStats:
    def test_known_values(self):
        s = _stats([4, 1, 3, 2])
        assert (s["count"], s["min"], s["mean"], s["max"]) == (4, 1, 2.5, 4)
        assert s["p95"] == 4
        assert _stats([4, 1, 3, 2], floats=True) == {
            "count": 4, "min": 1.0, "mean": 2.5, "max": 4.0, "p95": 4.0}

    def test_float_mean_is_exactly_rounded_in_any_order(self):
        values = [1e16, 1.0, -1e16, 0.1, 0.2]
        assert _stats(values, floats=True)["mean"] == \
               _stats(list(reversed(values)), floats=True)["mean"] == \
               round(math.fsum(values) / len(values), 6)

    def test_merge_equals_feeding_everything(self):
        left, right = RunningStats(floats=True), RunningStats(floats=True)
        for v in (1e16, 0.1, 3.0):
            left.feed(v)
        for v in (-1e16, 0.2):
            right.feed(v)
        left.merge(right)
        assert left.stats() == _stats([1e16, 0.1, 3.0, -1e16, 0.2], floats=True)

    def test_empty_column_refused(self):
        with pytest.raises(SchemaError):
            RunningStats().stats()

    def test_p95_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 95) == 95
        assert percentile([7], 95) == 7
        assert percentile([1, 2], 50) == 1

    def test_percentile_bounds(self):
        with pytest.raises(SchemaError):
            percentile([], 95)
        with pytest.raises(SchemaError):
            percentile([1], 101)


class TestNormalization:
    def test_lemma2_units(self, make_record):
        r = make_record(n=64, k=2, max_bits=96)
        assert normalized_bits(r) == round(96 / (4 * math.log2(64)), 6)

    def test_default_k_is_one(self, make_record):
        r = make_record(n=16, max_bits=20)
        assert normalized_bits(r) == round(20 / math.log2(16), 6)

    def test_undefined_for_tiny_n(self, make_record):
        assert normalized_bits(make_record(n=1)) is None

    def test_undefined_for_non_integer_k(self, make_record):
        r = make_record(n=16)
        r["spec"]["protocol_params"]["k"] = 1.5
        assert normalized_bits(r) is None

    def test_zero_bit_runs_excluded(self, make_record):
        failed = make_record(status="error", exact=None, max_bits=0, total_bits=0)
        assert normalized_bits(failed) is None

    def test_failed_runs_do_not_drag_the_group_mean(self, make_record):
        records = [
            make_record(seed=0, n=16, max_bits=20),
            make_record(seed=1, n=16, status="error", exact=None,
                        max_bits=0, total_bits=0),
        ]
        [g] = aggregate(records, by=("n",))
        # only the measured run contributes to the normalization column
        assert g["bits_per_k2_log_n"]["count"] == 1
        assert g["bits_per_k2_log_n"]["mean"] == round(20 / math.log2(16), 6)


class TestAggregate:
    def test_grouping_counts(self, make_record):
        records = [
            make_record(protocol="forest", n=12),
            make_record(protocol="forest", n=12, seed=1),
            make_record(protocol="forest", n=16),
            make_record(protocol="degeneracy", n=16, k=2),
        ]
        groups = aggregate(records, by=("protocol", "n"))
        keys = [(g["group"]["protocol"], g["group"]["n"]) for g in groups]
        assert keys == [("degeneracy", 16), ("forest", 12), ("forest", 16)]
        assert [g["runs"] for g in groups] == [1, 2, 1]

    def test_numeric_axis_sorts_numerically(self, make_record):
        records = [make_record(n=n) for n in (128, 16, 64)]
        groups = aggregate(records, by=("n",))
        assert [g["group"]["n"] for g in groups] == [16, 64, 128]

    def test_bit_stats(self, make_record):
        records = [make_record(max_bits=b, total_bits=10 * b, seed=i)
                   for i, b in enumerate((10, 20, 30, 40))]
        [g] = aggregate(records, by=("protocol",))
        assert g["max_message_bits"] == {
            "count": 4, "min": 10, "mean": 25, "max": 40, "p95": 40}
        assert g["total_message_bits"]["mean"] == 250

    def test_exact_and_status_rates(self, make_record):
        records = [
            make_record(seed=0, exact=True), make_record(seed=1, exact=True),
            make_record(seed=2, exact=False),
            make_record(seed=3, status="error", exact=None),
        ]
        [g] = aggregate(records, by=("family",))
        assert g["statuses"] == {"error": 1, "ok": 3}
        assert g["exact"] == {"true": 2, "false": 1, "checked": 3,
                              "rate": round(2 / 3, 6)}

    def test_fault_events_totalled(self, make_record):
        faults = {"drop": 0.2, "duplicate": 0.0, "flip": 0.0, "seed": 7}
        records = [make_record(seed=i, faults=faults, dropped=i) for i in range(3)]
        [g] = aggregate(records, by=("faults",))
        assert g["group"]["faults"] == "drop=0.2,dup=0.0,flip=0.0,seed=7"
        assert g["fault_events"]["dropped"] == 3

    def test_timing_is_opt_in(self, make_record):
        records = [make_record(wall=0.5)]
        [bare] = aggregate(records, by=("n",))
        assert "wall_seconds" not in bare
        [timed] = aggregate(records, by=("n",), include_timing=True)
        assert timed["wall_seconds"]["mean"] == 0.5

    def test_unknown_axis_rejected(self, make_record):
        with pytest.raises(SchemaError, match="unknown group-by axis"):
            aggregate([make_record()], by=("colour",))

    def test_empty_axes_rejected(self, make_record):
        with pytest.raises(SchemaError, match="at least one"):
            aggregate([make_record()], by=())

    def test_zero_records_rejected(self):
        with pytest.raises(SchemaError, match="zero records"):
            aggregate([], by=("n",))

    def test_deterministic(self, make_record):
        records = [make_record(n=n, seed=s) for n in (12, 16) for s in (0, 1)]
        assert aggregate(records, by=("n",)) == aggregate(records, by=("n",))


class TestTable:
    def test_table_shape(self, make_record):
        records = [make_record(n=12), make_record(n=16, seed=1)]
        by = ("protocol", "n")
        groups = aggregate(records, by=by)
        title, headers, rows = aggregate_table(groups, by, title="t")
        assert title == "t"
        assert headers[:2] == ["protocol", "n"]
        assert len(rows) == 2
        assert all(len(r) == len(headers) for r in rows)

    def test_exact_dash_when_unchecked(self, make_record):
        groups = aggregate([make_record(exact=None, status="error")], by=("n",))
        _, headers, rows = aggregate_table(groups, ("n",))
        assert rows[0][headers.index("exact")] == "-"
