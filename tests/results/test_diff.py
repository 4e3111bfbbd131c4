"""Campaign diffing: content-hash alignment, tolerances, determinism.

``diff_campaigns(a, b)`` is the baseline check with side a as the
baseline, so every case here reads the shared ``BaselineCheck`` verdict.
"""

import copy
import json

import pytest

from repro.errors import SchemaError
from repro.results import check, diff_campaigns, summarize_campaign


def _pair(make_record, n_runs=3):
    a = [make_record(seed=s, max_bits=20 + s, total_bits=300 + s, digest=f"d{s}")
         for s in range(n_runs)]
    return a, copy.deepcopy(a)


class TestAlignment:
    def test_identical_campaigns_are_ok(self, make_record):
        a, b = _pair(make_record)
        verdict = diff_campaigns(a, b)
        assert verdict.passed and verdict.failures == []
        assert verdict.runs_checked == 3

    def test_two_empty_campaigns_pass(self):
        verdict = diff_campaigns([], [])
        assert verdict.passed and verdict.runs_checked == 0

    def test_alignment_ignores_file_order_and_labels(self, make_record):
        a, b = _pair(make_record)
        b.reverse()
        for record in b:
            record["spec"]["scenario"] = "renamed"
        assert diff_campaigns(a, b).passed

    def test_missing_and_extra_runs(self, make_record):
        a, b = _pair(make_record)
        dropped = b.pop()
        b.append(make_record(seed=99, digest="new"))
        verdict = diff_campaigns(a, b)
        assert not verdict.passed
        assert sorted(f.kind for f in verdict.failures) == ["extra-run", "missing-run"]
        [missing] = [f for f in verdict.failures if f.kind == "missing-run"]
        assert f"seed={dropped['spec']['seed']}" in missing.detail

    def test_duplicate_hash_rejected(self, make_record):
        record = make_record()
        with pytest.raises(SchemaError, match="duplicate run"):
            diff_campaigns([record, copy.deepcopy(record)], [record])


class TestMismatches:
    def test_digest_change_detected(self, make_record):
        a, b = _pair(make_record)
        b[1]["result"]["output_digest"] = "changed"
        verdict = diff_campaigns(a, b)
        assert not verdict.passed
        [failure] = verdict.failures
        assert failure.kind == "result"
        assert failure.detail == "output_digest: expected 'd1', got 'changed'"

    def test_status_and_exact_changes_detected(self, make_record):
        a, b = _pair(make_record)
        b[0]["result"]["status"] = "error"
        b[2]["result"]["exact"] = False
        fields = {f.detail.split(":")[0] for f in diff_campaigns(a, b).failures}
        assert fields == {"status", "exact"}

    def test_bit_delta_beyond_tolerance(self, make_record):
        a, b = _pair(make_record)
        b[0]["result"]["max_message_bits"] += 5
        strict = diff_campaigns(a, b)
        [failure] = strict.failures
        assert failure.kind == "bits"
        assert failure.detail.startswith("max_message_bits:")
        loose = diff_campaigns(a, b, bits_tolerance=0.5)
        assert loose.passed and loose.bits_tolerance == 0.5

    def test_exact_tolerance_boundary(self, make_record):
        a, b = _pair(make_record, n_runs=1)
        b[0]["result"]["total_message_bits"] = 330  # +10% of 300
        assert diff_campaigns(a, b, bits_tolerance=0.1).passed
        assert not diff_campaigns(a, b, bits_tolerance=0.09).passed

    def test_negative_tolerance_rejected(self, make_record):
        a, b = _pair(make_record)
        with pytest.raises(SchemaError, match="bits_tolerance"):
            diff_campaigns(a, b, bits_tolerance=-0.1)


def _perturb_digest(b, make_record):
    b[1]["result"]["output_digest"] = "changed"


def _perturb_status(b, make_record):
    b[0]["result"]["status"] = "error"


def _perturb_exact(b, make_record):
    b[2]["result"]["exact"] = False


def _perturb_bits_beyond(b, make_record):
    b[0]["result"]["max_message_bits"] += 5


def _perturb_bits_within(b, make_record):
    b[0]["result"]["total_message_bits"] += 30  # +10% of 300


def _perturb_missing(b, make_record):
    b.pop()


def _perturb_extra(b, make_record):
    b.append(make_record(seed=99, digest="new"))


def _perturb_relabel(b, make_record):
    b[1]["spec"]["scenario"] = "renamed"


@pytest.mark.parametrize("perturb", [
    _perturb_digest, _perturb_status, _perturb_exact, _perturb_bits_beyond,
    _perturb_bits_within, _perturb_missing, _perturb_extra, _perturb_relabel,
], ids=lambda f: f.__name__.removeprefix("_perturb_"))
@pytest.mark.parametrize("tolerance", [0.0, 0.1])
def test_diff_is_a_check_against_side_a(make_record, perturb, tolerance):
    """One pin comparison: diff(a, b) and check(b, freeze(a)) fail alike."""
    a, b = _pair(make_record)
    perturb(b, make_record)
    diffed = diff_campaigns(a, b, bits_tolerance=tolerance)
    checked = check(b, summarize_campaign(a), bits_tolerance=tolerance)
    assert diffed.failures == checked.failures
    assert diffed.runs_checked == checked.runs_checked
    tolerated = perturb is _perturb_bits_within and tolerance
    assert diffed.passed == (perturb is _perturb_relabel or bool(tolerated))


class TestDeterminism:
    def test_default_report_is_byte_stable(self, make_record):
        a, b = _pair(make_record)
        b[1]["result"]["output_digest"] = "changed"
        b[0]["timing"]["wall_seconds"] = 42.0  # timing noise must not leak
        one = json.dumps(diff_campaigns(a, b).to_dict(), sort_keys=True)
        b[0]["timing"]["wall_seconds"] = 7.0
        two = json.dumps(diff_campaigns(a, b).to_dict(), sort_keys=True)
        assert one == two
        assert "42" not in one
