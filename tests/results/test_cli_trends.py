"""CLI surface for the trend ledger: ``report --trend``.

Exit-code convention: 0 success, 1 domain failure (trend regression,
campaign with nothing to report), 2 usage error.  Errors are messages,
never tracebacks.
"""

import json

import pytest

from repro.cli import main
from repro.results.trends import (
    TREND_VERSION,
    append_point,
    campaign_trend_key,
    load_points,
    trends_path,
)


@pytest.fixture()
def campaign_dir(tmp_path):
    """A merged 3-shard smoke campaign (the CI job's shape)."""
    for i in range(3):
        assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                     "--shards", "3", "--shard-index", str(i)]) == 0
    assert main(["merge", "smoke", "--results-dir", str(tmp_path)]) == 0
    return tmp_path


class TestReportTrend:
    def test_report_trend_appends_point(self, campaign_dir, capsys):
        capsys.readouterr()
        assert main(["report", str(campaign_dir / "smoke.jsonl"),
                     "--trend", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trend"]["regressed"] is False
        assert payload["trend"]["points"] == 1
        assert len(load_points(trends_path(campaign_dir))) == 1

    def test_report_trend_regression_exits_one(self, campaign_dir, capsys):
        # Inject a synthetic 3-run climb below any real p95 so the real
        # run's value extends the strictly-increasing tail.  The series
        # key must match what report computes, so derive it by running
        # report --trend once and reusing the recorded key.
        ledger = trends_path(campaign_dir)
        records = campaign_dir / "smoke.jsonl"
        assert main(["report", str(records), "--trend", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        key = payload["trend"]["key"]
        real = payload["trend"]["metrics"]["max_message_bits_p95"]
        ledger.unlink()
        for v in (real - 3, real - 2, real - 1):
            append_point(ledger, {
                "trend_version": TREND_VERSION, "kind": "campaign",
                "key": key, "name": "smoke",
                "metrics": {"max_message_bits_p95": v},
            })
        assert main(["report", str(records), "--trend"]) == 1
        out = capsys.readouterr()
        assert "TREND REGRESSION" in out.out or "regress" in out.out.lower()
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("offsets,code", [((3, 2, 1), 1), ((0, 0, 0), 0)],
                             ids=["climb", "flat"])
    def test_legacy_bench_point_changes_no_verdict(self, campaign_dir, capsys,
                                                   offsets, code):
        # Ledgers written by the retired `bench --trends` gate hold
        # kind "bench" points between campaign points; they must load and
        # leave the campaign series, its verdict and exit code as they were.
        ledger = trends_path(campaign_dir)
        records = campaign_dir / "smoke.jsonl"
        assert main(["report", str(records), "--trend", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        key = payload["trend"]["key"]
        real = payload["trend"]["metrics"]["max_message_bits_p95"]
        campaign = [{"trend_version": TREND_VERSION, "kind": "campaign",
                     "key": key, "name": "smoke",
                     "metrics": {"max_message_bits_p95": real - offset}}
                    for offset in offsets]
        bench = {"trend_version": TREND_VERSION, "kind": "bench",
                 "key": "0123456789abcdef", "name": "l0-update",
                 "metrics": {"wall_p95_seconds": 0.0125}}
        outcomes = []
        for points in (campaign, campaign[:2] + [bench] + campaign[2:]):
            ledger.unlink()
            for point in points:
                append_point(ledger, point)
            outcomes.append((main(["report", str(records), "--trend"]),
                             capsys.readouterr()))
        (plain_code, plain), (legacy_code, legacy) = outcomes
        assert plain_code == legacy_code == code
        assert legacy.out == plain.out
        assert legacy.err == plain.err == ""
        assert [p["kind"] for p in load_points(ledger)] == \
            ["campaign", "campaign", "bench", "campaign", "campaign"]

    def test_report_trend_unreadable_ledger_is_usage_error(self, campaign_dir,
                                                           capsys):
        trends_path(campaign_dir).write_text("not json\n" * 2)
        assert main(["report", str(campaign_dir / "smoke.jsonl"),
                     "--trend"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err

    def test_report_missing_records_is_clean_exit_one(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "smoke.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "has not written" in err
        assert "Traceback" not in err

    def test_report_empty_records_is_clean_exit_one(self, tmp_path, capsys):
        records = tmp_path / "smoke.jsonl"
        records.write_text("")
        assert main(["report", str(records)]) == 1
        err = capsys.readouterr().err
        assert "nothing to report" in err
        assert "Traceback" not in err


def test_campaign_trend_key_separates_grids():
    assert campaign_trend_key(["a", "b"]) != campaign_trend_key(["a"])
