"""Regression battery for the incremental ``/summary`` cache.

The bug this pins: the old handler re-read every durable record line on
every poll.  The cache must answer repeated polls of unchanged streams
with ZERO file opens — counted by patching the module's single read
choke point — while staying byte-equivalent to batch aggregation.
"""

import json

import pytest

import repro.serve.summary as summary_mod
from repro.engine.shard import shard_stream_path
from repro.results.aggregate import aggregate
from repro.results.records import canonical_line, validate_record
from repro.serve.summary import SummaryCache

BY = ("protocol", "family", "n")


def _rec(n=16, seed=0, bits=20):
    return validate_record({
        "spec_version": 2,
        "spec": {
            "scenario": "s", "family": "random_forest", "n": n, "seed": seed,
            "protocol": "forest", "family_params": {}, "protocol_params": {},
            "budget_bits": None, "shuffle_delivery": False, "faults": None,
        },
        "result": {
            "status": "ok", "output_kind": "graph", "output_digest": "d",
            "exact": True, "graph_n": n, "graph_m": n - 1,
            "max_message_bits": bits, "total_message_bits": bits * n,
            "faults": {"dropped": 0, "duplicated": 0, "flipped": 0},
            "error": "",
        },
        "timing": {"wall_seconds": 0.01},
        "cached": False,
    })


@pytest.fixture()
def opens(monkeypatch):
    """Count every file open the cache performs."""
    counter = {"n": 0}
    real = summary_mod._read_from

    def counting(path, offset):
        counter["n"] += 1
        return real(path, offset)

    monkeypatch.setattr(summary_mod, "_read_from", counting)
    return counter


def _job(state="running", *, shards=2, jsonl=None):
    return {"id": "j1", "state": state, "name": "t", "shards": shards,
            "jsonl": jsonl}


def _write_stream(results_dir, index, shards, records):
    path = shard_stream_path(results_dir, "t", index, shards)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(canonical_line(r) + "\n" for r in records))
    return path


class TestZeroOpensWhenIdle:
    def test_repeated_polls_open_nothing(self, tmp_path, opens):
        _write_stream(tmp_path, 0, 2, [_rec(seed=0), _rec(seed=1)])
        _write_stream(tmp_path, 1, 2, [_rec(seed=2)])
        cache = SummaryCache()
        count, groups = cache.summary(tmp_path, _job(), BY)
        assert count == 3
        assert opens["n"] == 2  # one open per stream to catch up

        for _ in range(10):  # the tight polling client
            again, same = cache.summary(tmp_path, _job(), BY)
            assert (again, same) == (count, groups)
        assert opens["n"] == 2  # ZERO additional opens — the regression

    def test_append_costs_one_open_for_that_stream(self, tmp_path, opens):
        s0 = _write_stream(tmp_path, 0, 2, [_rec(seed=0)])
        _write_stream(tmp_path, 1, 2, [_rec(seed=1)])
        cache = SummaryCache()
        cache.summary(tmp_path, _job(), BY)
        assert opens["n"] == 2

        with s0.open("a") as fh:
            fh.write(canonical_line(_rec(seed=7)) + "\n")
        count, _ = cache.summary(tmp_path, _job(), BY)
        assert count == 3
        assert opens["n"] == 3  # only the grown stream was reopened


class TestCorrectness:
    def test_matches_batch_aggregate(self, tmp_path):
        records = [_rec(n=16, seed=s, bits=10 + s) for s in range(4)]
        records += [_rec(n=64, seed=s, bits=100 + s) for s in range(3)]
        _write_stream(tmp_path, 0, 2, records[::2])
        _write_stream(tmp_path, 1, 2, records[1::2])
        cache = SummaryCache()
        count, groups = cache.summary(tmp_path, _job(), BY)
        assert count == len(records)
        assert json.dumps(groups, sort_keys=True) == \
            json.dumps(aggregate(records, by=BY), sort_keys=True)

    def test_torn_tail_stays_unconsumed_until_newline(self, tmp_path):
        stream = _write_stream(tmp_path, 0, 1, [_rec(seed=0)])
        torn = canonical_line(_rec(seed=9))
        with stream.open("a") as fh:
            fh.write(torn[:30])  # crash mid-write
        cache = SummaryCache()
        count, _ = cache.summary(tmp_path, _job(shards=1), BY)
        assert count == 1  # the torn record is not trusted

        with stream.open("a") as fh:
            fh.write(torn[30:] + "\n")  # the line completes
        count, _ = cache.summary(tmp_path, _job(shards=1), BY)
        assert count == 2

    def test_missing_streams_are_empty_not_errors(self, tmp_path):
        _write_stream(tmp_path, 0, 2, [_rec()])
        cache = SummaryCache()
        count, groups = cache.summary(tmp_path, _job(), BY)
        assert count == 1 and groups


class TestRebuildPaths:
    def test_shrunk_stream_forces_full_rebuild(self, tmp_path, opens):
        s0 = _write_stream(tmp_path, 0, 2, [_rec(seed=0), _rec(seed=1)])
        _write_stream(tmp_path, 1, 2, [_rec(seed=2)])
        cache = SummaryCache()
        cache.summary(tmp_path, _job(), BY)

        # A resume truncated the torn tail: the stream shrank in place.
        lines = s0.read_text().splitlines()
        s0.write_text(lines[0] + "\n")
        count, groups = cache.summary(tmp_path, _job(), BY)
        assert count == 2
        assert opens["n"] == 4  # 2 initial + full 2-stream rebuild

    def test_done_job_rebuilds_once_from_canonical(self, tmp_path, opens):
        records = [_rec(seed=s) for s in range(4)]
        _write_stream(tmp_path, 0, 2, records[::2])
        _write_stream(tmp_path, 1, 2, records[1::2])
        canonical = tmp_path / "t.jsonl"
        canonical.write_text(
            "".join(canonical_line(r) + "\n" for r in records)
        )
        cache = SummaryCache()
        cache.summary(tmp_path, _job(), BY)  # tailing: 2 opens
        job = _job("done", jsonl=str(canonical))
        count, groups = cache.summary(tmp_path, job, BY)
        assert count == 4
        assert opens["n"] == 3  # + one canonical rebuild
        for _ in range(5):
            cache.summary(tmp_path, job, BY)
        assert opens["n"] == 3  # then memory-served
        assert json.dumps(groups, sort_keys=True) == \
            json.dumps(aggregate(records, by=BY), sort_keys=True)

