"""Cache hits replay as their stored bytes (DESIGN.md §7).

When a stored record's spec equals the requesting spec, scenario label
included, the re-run writes the stored line back byte for byte with only
its leading ``"cached"`` flag set.  Any other hit is restamped with the
requesting spec and serialized again, as is a stored line that does not
begin with the flag.
"""

import json
import os
import pathlib

import pytest

import repro.engine.scenario as scenario_module
import repro.engine.shard as shard_module
from repro import registry
from repro.engine import Campaign, Scenario, builtin_campaign
from repro.engine.shard import JsonlStreamWriter, durable_records

FRESH, CACHED = b'{"cached": false', b'{"cached": true'


def _flagged(line: bytes) -> bytes:
    assert line.startswith(FRESH), line[:40]
    return CACHED + line[len(FRESH):]


def _lines(path) -> list[bytes]:
    return path.read_bytes().splitlines()


def _canonical(records) -> list[bytes]:
    return [json.dumps(r.to_json_dict(), sort_keys=True).encode() for r in records]


def _grid(label: str = "forest", seeds: int = 9) -> list[Scenario]:
    return [
        Scenario(name=label, family="random_forest", sizes=(10, 14),
                 protocol="forest", seeds=tuple(range(seeds))),
        Scenario(name=f"{label}-deg", family="random_k_degenerate", sizes=(12,),
                 protocol="degeneracy", seeds=(0, 1, 2),
                 family_params={"k": 2}, protocol_params={"k": 2}),
    ]


@pytest.mark.parametrize("name", registry.CAMPAIGN.names())
def test_warm_rerun_of_every_builtin_campaign_is_the_cold_stream_flagged(
        tmp_path, name):
    cold = builtin_campaign(name, results_dir=tmp_path).run()
    cold_lines = _lines(cold.jsonl_path)
    assert cold.cache_hits == 0 and cold_lines
    warm = builtin_campaign(name, results_dir=tmp_path).run()
    assert (warm.cache_hits, warm.cache_misses) == (len(cold_lines), 0)
    assert warm.jsonl_path.read_bytes() == b"".join(
        _flagged(line) + b"\n" for line in cold_lines)


def test_mixed_rerun_equals_the_reserialized_result(tmp_path):
    cold = Campaign(_grid(), name="c", results_dir=tmp_path).run()
    stream = cold.jsonl_path
    cold_lines = _lines(stream)
    fresh = set(range(0, len(cold_lines), 3))
    stream.write_bytes(b"".join(
        line + b"\n" for i, line in enumerate(cold_lines) if i not in fresh))

    rerun = Campaign(_grid(), name="c", results_dir=tmp_path).run()
    assert (rerun.cache_hits, rerun.cache_misses) == \
           (len(cold_lines) - len(fresh), len(fresh))
    lines = _lines(stream)
    assert lines == _canonical(rerun.records)
    for i, (line, before) in enumerate(zip(lines, cold_lines)):
        if i not in fresh:
            assert line == _flagged(before)
            continue
        now, then = json.loads(line), json.loads(before)
        assert now.pop("timing") and then.pop("timing")
        assert now == then  # both fresh: cached false, same result


def test_hit_under_another_label_is_reserialized_with_the_requesting_label(
        tmp_path):
    stored = Campaign(_grid("a"), name="a", results_dir=tmp_path).run()
    other = Campaign(_grid("b"), name="b", results_dir=tmp_path).run()
    assert (other.cache_hits, other.cache_misses) == (len(stored.records), 0)
    assert {r.spec.scenario for r in other.records} == {"b", "b-deg"}
    expected = []
    for record in stored.records:
        d = record.to_json_dict()
        d["spec"]["scenario"] = "b" + d["spec"]["scenario"][1:]
        d["cached"] = True
        expected.append(json.dumps(d, sort_keys=True).encode())
    assert _lines(other.jsonl_path) == expected


def test_line_already_marked_cached_is_copied_unchanged(tmp_path):
    Campaign(_grid(), name="c", results_dir=tmp_path).run()
    warm = Campaign(_grid(), name="c", results_dir=tmp_path).run()
    warm_bytes = warm.jsonl_path.read_bytes()
    assert all(line.startswith(CACHED) for line in warm_bytes.splitlines())
    again = Campaign(_grid(), name="c", results_dir=tmp_path).run()
    assert again.cache_misses == 0
    assert again.jsonl_path.read_bytes() == warm_bytes


def test_hand_edited_lines_replay_as_design_section_7_says(tmp_path):
    """A stored line that still begins with the flag is the record: its
    edits are copied and only the flag is set.  A line that does not
    (keys unsorted, compact separators) is serialized again."""
    cold = Campaign(_grid(), name="c", results_dir=tmp_path).run()
    cold_lines = _lines(cold.jsonl_path)
    spaced = cold_lines[0].replace(b'"graph_m": ', b'"graph_m":    ')
    unsorted = json.dumps(dict(reversed(json.loads(cold_lines[1]).items()))).encode()
    compact = json.dumps(json.loads(cold_lines[2]), sort_keys=True,
                         separators=(",", ":")).encode()
    assert spaced != cold_lines[0]
    assert not unsorted.startswith(FRESH) and not compact.startswith(FRESH)
    edited = [spaced, unsorted, compact] + cold_lines[3:]
    cold.jsonl_path.write_bytes(b"".join(line + b"\n" for line in edited))

    warm = Campaign(_grid(), name="c", results_dir=tmp_path).run()
    assert warm.cache_misses == 0
    lines = _lines(warm.jsonl_path)
    assert lines[0] == _flagged(spaced)  # the edit survives
    assert lines[1] == _flagged(cold_lines[1])  # canonical again
    assert lines[2] == _flagged(cold_lines[2])
    assert lines[3:] == [_flagged(line) for line in cold_lines[3:]]


@pytest.mark.parametrize("use_cache", [True, False], ids=["cache", "no-cache"])
def test_resume_under_a_new_label_restamps_the_stream(tmp_path, use_cache):
    """The content hash leaves the label out, so a resumed record is
    restamped with the requesting spec, in the stream as in the result."""
    def grid(label):
        return [Scenario(name=label, family="random_forest", sizes=(10,),
                         protocol="forest", seeds=(0, 1, 2))]

    Campaign(grid("old"), name="c", results_dir=tmp_path,
             use_cache=False).run()
    resumed = Campaign(grid("new"), name="c", results_dir=tmp_path,
                       use_cache=use_cache).run(resume=True)
    assert (resumed.resumed, resumed.cache_misses) == (3, 0)
    assert {r.spec.scenario for r in resumed.records} == {"new"}
    lines = _lines(resumed.jsonl_path)
    assert [json.loads(line)["spec"]["scenario"] for line in lines] == ["new"] * 3
    assert lines == _canonical(resumed.records)


def test_resume_with_the_cache_on_reads_each_stream_once(tmp_path, monkeypatch):
    Campaign(_grid("a"), name="a", results_dir=tmp_path).run()
    Campaign(_grid(), name="c", results_dir=tmp_path, use_cache=False).run()
    reads = []
    real = shard_module.scan_partial_lines

    def counting(path, *args, **kwargs):
        reads.append(pathlib.Path(path).name)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(shard_module, "scan_partial_lines", counting)
    again = Campaign(_grid(), name="c", results_dir=tmp_path).run(resume=True)
    assert again.resumed == len(again.records)
    assert sorted(reads) == ["a.jsonl", "c.jsonl"]


@pytest.mark.parametrize("resume", [False, True], ids=["second-warm", "resume"])
def test_a_stream_that_already_holds_the_run_gets_no_line(
        tmp_path, monkeypatch, resume):
    """A second warm re-run and a resume of a complete stream keep every
    line in place; close still fsyncs the kept stream once."""
    Campaign(_grid(), name="c", results_dir=tmp_path).run()
    warm = Campaign(_grid(), name="c", results_dir=tmp_path).run()
    stream = warm.jsonl_path
    before = stream.read_bytes()
    writes, syncs = [], []
    real_write = JsonlStreamWriter.write
    real_write_replayed = JsonlStreamWriter.write_replayed
    real_fsync = os.fsync

    def write(self, record):
        writes.append(record)
        real_write(self, record)

    def write_replayed(self, line):
        writes.append(line)
        real_write_replayed(self, line)

    def fsync(fd):
        if os.path.samestat(os.fstat(fd), os.stat(stream)):
            syncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(JsonlStreamWriter, "write", write)
    monkeypatch.setattr(JsonlStreamWriter, "write_replayed", write_replayed)
    monkeypatch.setattr(os, "fsync", fsync)
    again = Campaign(_grid(), name="c", results_dir=tmp_path).run(resume=resume)
    monkeypatch.undo()
    assert again.cache_misses == 0
    assert (again.resumed, again.cache_hits) == (
        (len(again.records), 0) if resume else (0, len(again.records)))
    assert writes == []
    assert len(syncs) == 1
    assert stream.read_bytes() == before


class TestDurableRecords:
    def test_keeps_each_stored_line_next_to_its_record(self, tmp_path):
        campaign = Campaign(_grid(), name="c", results_dir=tmp_path)
        cold = campaign.run()
        grid = {s: s.content_hash() for s in campaign.specs()}
        found = durable_records(tmp_path, grid)
        assert list(found) == [r.spec.content_hash() for r in cold.records]
        for (record, line), stored in zip(found.values(), _lines(cold.jsonl_path)):
            assert line == stored
            assert _canonical([record]) == [stored]

    def test_hashes_only_specs_outside_the_grid(self, tmp_path, monkeypatch):
        Campaign(_grid("a"), name="a", results_dir=tmp_path).run()
        calls = []

        def counting(spec):
            calls.append(spec["scenario"])
            return real(spec)

        real = scenario_module.spec_content_hash
        same = Campaign(_grid("a"), name="x", results_dir=None).specs()
        relabelled = Campaign(_grid("b"), name="x", results_dir=None).specs()
        grids = [{s: s.content_hash() for s in specs}
                 for specs in (same, relabelled)]
        monkeypatch.setattr(scenario_module, "spec_content_hash", counting)

        assert len(durable_records(tmp_path, grids[0])) == len(same)
        assert calls == []  # every stored spec is one of the grid's own
        assert len(durable_records(tmp_path, grids[1])) == len(same)
        assert sorted(set(calls)) == ["a", "a-deg"] and len(calls) == len(same)

    def test_drops_stored_records_the_grid_does_not_name(self, tmp_path):
        Campaign(_grid(seeds=9), name="c", results_dir=tmp_path).run()
        small = Campaign(_grid(seeds=2), name="c", results_dir=None).specs()
        found = durable_records(tmp_path, {s: s.content_hash() for s in small})
        assert set(found) == {s.content_hash() for s in small}
