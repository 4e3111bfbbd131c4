"""Frozen baselines: freeze determinism and the regression-gate verdicts."""

import copy
import json

import pytest

from repro.errors import BaselineError, SchemaError
from repro.results import check, freeze, load_baseline, summarize_campaign


def _records(make_record, n_runs=3):
    return [make_record(seed=s, max_bits=20 + s, total_bits=300 + s,
                        digest=f"d{s}") for s in range(n_runs)]


class TestFreeze:
    def test_freeze_writes_named_file(self, tmp_path, make_record):
        path = freeze(_records(make_record), "smoke", baselines_dir=tmp_path)
        assert path == tmp_path / "smoke.json"
        baseline = json.loads(path.read_text())
        assert baseline["runs"] == 3
        assert len(baseline["by_hash"]) == 3

    def test_freeze_is_byte_stable(self, tmp_path, make_record):
        records = _records(make_record)
        first = freeze(records, "b", baselines_dir=tmp_path).read_bytes()
        # timing noise must not reach the frozen form
        records[0]["timing"]["wall_seconds"] = 999.0
        assert freeze(records, "b", baselines_dir=tmp_path).read_bytes() == first

    def test_freeze_zero_records_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="zero records"):
            freeze([], "empty", baselines_dir=tmp_path)

    def test_summary_has_no_timing(self, make_record):
        summary = summarize_campaign(_records(make_record))
        assert "timing" not in json.dumps(summary)


class TestLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(BaselineError, match="does not exist"):
            load_baseline(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(BaselineError, match="not valid JSON"):
            load_baseline(path)

    def test_wrong_version(self, tmp_path, make_record):
        path = freeze(_records(make_record), "b", baselines_dir=tmp_path)
        baseline = json.loads(path.read_text())
        baseline["baseline_version"] = 99
        path.write_text(json.dumps(baseline))
        with pytest.raises(BaselineError, match="baseline_version"):
            load_baseline(path)

    def test_truncated_entry_refused(self, tmp_path, make_record):
        """A baseline that cannot pin anything must fail loudly, not pass."""
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        baseline = json.loads(path.read_text())
        for entry in baseline["by_hash"].values():
            del entry["output_digest"]
            del entry["max_message_bits"]
        path.write_text(json.dumps(baseline))
        with pytest.raises(BaselineError, match="missing pinned field"):
            check(records, path)


class TestCheck:
    def test_same_records_pass(self, tmp_path, make_record):
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        verdict = check(copy.deepcopy(records), path)
        assert verdict.passed
        assert verdict.runs_checked == 3
        assert verdict.to_dict()["failures"] == []

    def test_digest_change_fails(self, tmp_path, make_record):
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        records[1]["result"]["output_digest"] = "drifted"
        verdict = check(records, path)
        assert not verdict.passed
        [failure] = verdict.failures
        assert failure.kind == "result"
        assert "output_digest" in failure.detail

    def test_bit_growth_fails_within_tolerance_passes(self, tmp_path, make_record):
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        records[0]["result"]["max_message_bits"] += 2  # 10% of 20
        strict = check(records, path)
        assert not strict.passed and strict.failures[0].kind == "bits"
        assert check(records, path, bits_tolerance=0.1).passed

    def test_missing_run_fails(self, tmp_path, make_record):
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        verdict = check(records[:-1], path)
        assert not verdict.passed
        assert verdict.failures[0].kind == "missing-run"

    def test_extra_run_fails(self, tmp_path, make_record):
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        records.append(make_record(seed=77, digest="extra"))
        verdict = check(records, path)
        assert not verdict.passed
        assert verdict.failures[0].kind == "extra-run"

    def test_status_flip_fails(self, tmp_path, make_record):
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        records[2]["result"]["status"] = "violation"
        kinds = {f.kind for f in check(records, path).failures}
        assert "result" in kinds

    def test_verdict_json_serializable(self, tmp_path, make_record):
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        records[0]["result"]["exact"] = False
        payload = json.loads(json.dumps(check(records, path).to_dict()))
        assert payload["passed"] is False
        assert payload["failures"][0]["kind"] == "result"


class TestPinComparison:
    """Each pin of ``check`` on its own: which field, which kind, which run."""

    @pytest.mark.parametrize("field, drifted", [
        ("status", "violation"),
        ("output_kind", "decision"),
        ("output_digest", "drifted"),
        ("exact", None),
    ])
    def test_each_pinned_field_is_one_result_failure(
        self, tmp_path, make_record, field, drifted
    ):
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        expected = records[1]["result"][field]
        records[1]["result"][field] = drifted
        [failure] = check(records, path, bits_tolerance=1.0).failures
        assert failure.kind == "result"
        assert summarize_campaign(records)["by_hash"][failure.key]["seed"] == 1
        assert failure.detail == f"{field}: expected {expected!r}, got {drifted!r}"

    @pytest.mark.parametrize("field, base, allowed", [
        ("max_message_bits", 20, 2),      # 10% of 20
        ("total_message_bits", 300, 30),  # 10% of 300
    ])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("past", [False, True])
    def test_bit_tolerance_is_symmetric_and_inclusive(
        self, tmp_path, make_record, field, base, allowed, sign, past
    ):
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        assert records[0]["result"][field] == base
        records[0]["result"][field] = base + sign * (allowed + past)
        verdict = check(records, path, bits_tolerance=0.1)
        if not past:
            assert verdict.passed
            return
        [failure] = verdict.failures
        assert failure.kind == "bits"
        assert failure.detail == (f"{field}: expected {base} ± 10%, "
                                  f"got {base + sign * (allowed + 1)}")

    @pytest.mark.parametrize("kind", ["missing-run", "extra-run"])
    def test_missing_and_extra_details_name_the_run(self, tmp_path, make_record, kind):
        records = _records(make_record)
        odd = make_record(seed=7, family="path", n=8, scenario="grid", digest="o")
        grid = records + [odd]
        if kind == "missing-run":
            path = freeze(grid, "b", baselines_dir=tmp_path)
            checked = records
        else:
            path = freeze(records, "b", baselines_dir=tmp_path)
            checked = grid
        [failure] = check(checked, path).failures
        assert failure.kind == kind
        assert "grid/path/n=8/seed=7" in failure.detail

    def test_failures_list_missing_then_extra_then_pins_each_sorted(
        self, tmp_path, make_record
    ):
        records = [make_record(seed=s, digest=f"d{s}") for s in range(6)]
        path = freeze(records[:4], "b", baselines_dir=tmp_path)
        checked = copy.deepcopy(records[2:])
        for record in checked[:2]:
            record["result"]["output_digest"] = "drifted"
        failures = check(checked, path).failures
        kinds = [f.kind for f in failures]
        assert kinds == ["missing-run"] * 2 + ["extra-run"] * 2 + ["result"] * 2
        for kind in set(kinds):
            keys = [f.key for f in failures if f.kind == kind]
            assert keys == sorted(keys)

    def test_one_run_fails_each_of_its_drifted_pins(self, tmp_path, make_record):
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        records[0]["result"]["output_digest"] = "drifted"
        records[0]["result"]["total_message_bits"] += 1
        failures = check(records, path).failures
        assert [f.kind for f in failures] == ["result", "bits"]
        assert failures[0].key == failures[1].key

    def test_negative_tolerance_rejected(self, tmp_path, make_record):
        records = _records(make_record)
        path = freeze(records, "b", baselines_dir=tmp_path)
        with pytest.raises(SchemaError, match="bits_tolerance"):
            check(records, path, bits_tolerance=-0.1)
