"""The trend ledger: durability, series selection, the regression rule."""

import json
import os

import pytest

from repro.errors import StoreError
from repro.results.aggregate import RunningStats
from repro.results.trends import (
    DEFAULT_WINDOW,
    TREND_VERSION,
    append_point,
    campaign_point,
    campaign_trend_key,
    load_points,
    regressed,
    series,
    trends_path,
    validate_point,
)


def _point(value=1.0, *, kind="bench", key="k", name="b"):
    return {
        "trend_version": TREND_VERSION,
        "kind": kind,
        "key": key,
        "name": name,
        "metrics": {"wall_p95_seconds": value},
    }


def test_trends_path(tmp_path):
    assert trends_path(tmp_path) == tmp_path / "trends.jsonl"


def test_append_and_load_round_trip(tmp_path):
    ledger = trends_path(tmp_path)
    for v in (1.0, 2.0, 3.0):
        append_point(ledger, _point(v))
    points = load_points(ledger)
    assert [p["metrics"]["wall_p95_seconds"] for p in points] == [1.0, 2.0, 3.0]


def test_append_writes_canonical_lines_into_a_new_directory(tmp_path):
    ledger = trends_path(tmp_path / "new")
    assert append_point(ledger, _point(2.0)) == ledger
    append_point(ledger, _point(3.0))
    assert ledger.read_text() == "".join(
        json.dumps(_point(v), sort_keys=True) + "\n" for v in (2.0, 3.0))


def test_each_append_fsyncs_its_point_before_returning(tmp_path, monkeypatch):
    # The ledger's writer lives for one point, so the group-commit window
    # never holds a point back: its close fsyncs the line, once, before
    # append_point returns.
    ledger = trends_path(tmp_path)
    lines_at_fsync = []
    real_fsync = os.fsync

    def fsync(fd):
        lines_at_fsync.append(ledger.read_bytes().count(b"\n"))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    for appended in range(1, 4):
        append_point(ledger, _point(float(appended)))
        assert lines_at_fsync == list(range(1, appended + 1))


def test_load_missing_ledger_is_empty(tmp_path):
    assert load_points(trends_path(tmp_path)) == []


def test_load_tolerates_torn_tail(tmp_path):
    ledger = trends_path(tmp_path)
    append_point(ledger, _point(1.0))
    with ledger.open("a") as fh:
        fh.write('{"trend_version": 1, "kind": "ben')  # crash mid-write
    points = load_points(ledger)
    assert len(points) == 1


def test_append_after_torn_tail_keeps_every_point(tmp_path):
    ledger = trends_path(tmp_path)
    append_point(ledger, _point(1.0))
    with ledger.open("a") as fh:
        fh.write('{"trend_vers')  # crash mid-write
    append_point(ledger, _point(2.0))
    assert [p["metrics"]["wall_p95_seconds"] for p in load_points(ledger)] == [1.0, 2.0]
    append_point(ledger, _point(3.0))
    assert [p["metrics"]["wall_p95_seconds"] for p in load_points(ledger)] == [1.0, 2.0, 3.0]
    assert ledger.read_bytes().count(b"\n") == 3


def test_load_rejects_midstream_corruption(tmp_path):
    ledger = trends_path(tmp_path)
    good = json.dumps(_point(1.0), sort_keys=True)
    ledger.write_text(good + "\n" + "garbage\n" + good + "\n")
    with pytest.raises(StoreError):
        load_points(ledger)


@pytest.mark.parametrize("mutate, match", [
    (lambda p: p.pop("metrics"), "metrics"),
    (lambda p: p.update(kind="other"), "kind"),
    (lambda p: p.update(metrics={}), "non-empty"),
    (lambda p: p.update(metrics={"m": True}), "number"),
    (lambda p: p.update(metrics={"m": "fast"}), "number"),
    (lambda p: p.update(trend_version=TREND_VERSION + 1), "newer"),
])
def test_validate_point_rejects(mutate, match):
    point = _point()
    mutate(point)
    with pytest.raises(StoreError, match=match):
        validate_point(point)


def test_series_filters_on_all_axes(tmp_path):
    points = [
        _point(1.0),
        _point(9.0, name="other"),
        _point(8.0, key="other"),
        _point(7.0, kind="campaign"),
        _point(2.0),
    ]
    values = series(points, kind="bench", key="k", name="b",
                    metric="wall_p95_seconds")
    assert values == [1.0, 2.0]
    assert series(points, kind="bench", key="k", name="b",
                  metric="missing") == []


def test_regressed_needs_window_plus_one():
    assert not regressed([1.0, 2.0, 3.0])  # only 2 deltas for window=3
    assert regressed([1.0, 2.0, 3.0, 4.0])


def test_regressed_requires_strict_monotone_tail():
    assert not regressed([1.0, 2.0, 2.0, 3.0])   # plateau breaks the climb
    assert not regressed([5.0, 2.0, 3.0, 4.0, 3.9])
    assert regressed([9.0, 1.0, 2.0, 3.0, 4.0])  # only the tail matters


def test_regressed_custom_window():
    assert regressed([1.0, 2.0], window=1)
    assert not regressed([2.0, 1.0], window=1)
    with pytest.raises(StoreError):
        regressed([1.0, 2.0], window=0)


def test_campaign_trend_key_depends_on_specs():
    key = campaign_trend_key(["h1", "h2"])
    assert key != campaign_trend_key(["h1", "h3"])
    assert len(key) == 16


def test_legacy_bench_point_still_validates():
    # `bench --trends` wrote these before it was retired; nothing writes
    # them now, but older ledgers must keep loading
    legacy = {"trend_version": 1, "kind": "bench", "key": "k",
              "name": "l0-update", "metrics": {"wall_p95_seconds": 0.5}}
    assert validate_point(legacy) == legacy


def test_legacy_ledger_loads_bench_and_campaign_points_in_order(tmp_path):
    ledger = trends_path(tmp_path)
    points = [_point(1.0, kind="campaign"), _point(2.0), _point(3.0, kind="campaign")]
    ledger.write_text("".join(json.dumps(p, sort_keys=True) + "\n" for p in points))
    assert load_points(ledger) == points


def test_series_keeps_legacy_bench_points_out_of_campaign_series():
    points = [_point(1.0, kind="campaign"), _point(50.0), _point(2.0, kind="campaign")]
    assert series(points, kind="campaign", key="k", name="b",
                  metric="wall_p95_seconds") == [1.0, 2.0]


def _bits(*values):
    stats = RunningStats()
    for value in values:
        stats.feed(value)
    return stats


def test_campaign_point_metrics():
    point = validate_point(
        campaign_point(name="smoke", spec_hashes=["h"],
                       bits=_bits(10, 20, 30, 40))
    )
    assert point["kind"] == "campaign"
    assert point["metrics"]["records"] == 4
    assert point["metrics"]["max_message_bits_mean"] == 25.0
    assert point["metrics"]["max_message_bits_p95"] == 40


def test_campaign_point_zero_records_raises():
    with pytest.raises(StoreError, match="no records"):
        campaign_point(name="smoke", spec_hashes=["h"], bits=_bits())
