"""repro.engine.shard: assignment determinism, manifest contract, merge.

The load-bearing invariants:

* shard assignment is a *partition* of the deduplicated grid — disjoint
  and covering for every builtin campaign and every shard count — and is
  a pure function of the spec content hash, so it survives scenario
  reordering and grid edits;
* the checkpoint manifest round-trips, is written atomically, and
  refuses stale ``SPEC_VERSION`` / edited grids with actionable messages;
* ``merge`` of *any* shard-count factorization reproduces the 1-shard
  output hash (modulo the ``timing``/``cached`` sidecars);
* a torn final stream line is detected and dropped, a torn middle line
  is corruption and raises;
* the stream writer flushes every line whole, fsyncs once per 64 fresh
  lines (replayed lines do not count), and leaves the rest to ``close``.
"""

import json
import os

import pytest

from repro import registry
from repro.engine import (
    Campaign,
    Scenario,
    ShardManifest,
    builtin_campaign,
    load_partial_records,
    manifest_path,
    merge_shards,
    shard_done_path,
    shard_of,
    shard_specs,
    shard_stream_path,
)
from repro.engine.scenario import SPEC_VERSION, execute_run
from repro.engine.shard import JsonlStreamWriter
from repro.errors import ShardError, ShardIncomplete


def _tiny_scenarios():
    return [
        Scenario(name="forest", family="random_forest", sizes=(12, 16),
                 protocol="forest", seeds=(0, 1)),
        Scenario(name="conn", family="two_components", sizes=(12,),
                 protocol="agm_connectivity", seeds=(0,)),
    ]


def _strip(jsonl_text):
    out = []
    for line in jsonl_text.splitlines():
        d = json.loads(line)
        d.pop("timing")
        d.pop("cached")
        out.append(json.dumps(d, sort_keys=True))
    return out


class TestAssignment:
    @pytest.mark.parametrize("name", sorted(registry.CAMPAIGN.names()))
    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 8])
    def test_partition_disjoint_and_covering(self, name, shards):
        specs = builtin_campaign(name, results_dir=None).specs()
        parts = shard_specs(specs, shards)
        assert len(parts) == shards
        flat = [s.content_hash() for part in parts for s in part]
        assert sorted(flat) == sorted(s.content_hash() for s in specs)
        assert len(set(flat)) == len(flat)  # disjoint
        for i, part in enumerate(parts):  # every member agrees on its owner
            assert all(shard_of(s.content_hash(), shards) == i for s in part)

    @pytest.mark.parametrize("name", sorted(registry.CAMPAIGN.names()))
    def test_stable_under_scenario_reordering(self, name):
        scenarios = registry.CAMPAIGN.get(name)()
        if len(scenarios) < 2:
            pytest.skip("single-scenario campaign cannot be reordered")
        fwd = Campaign(scenarios, results_dir=None).specs()
        rev = Campaign(list(reversed(scenarios)), results_dir=None).specs()
        assign_fwd = {s.content_hash(): shard_of(s.content_hash(), 3) for s in fwd}
        assign_rev = {s.content_hash(): shard_of(s.content_hash(), 3) for s in rev}
        assert assign_fwd == assign_rev

    def test_stable_under_grid_edits(self):
        before = Campaign(_tiny_scenarios(), results_dir=None).specs()
        grown = Campaign(
            _tiny_scenarios() + [Scenario(name="extra", family="random_tree",
                                          sizes=(16,), protocol="agm_connectivity",
                                          seeds=(5,))],
            results_dir=None,
        ).specs()
        owners_before = {s.content_hash(): shard_of(s.content_hash(), 4)
                         for s in before}
        owners_after = {s.content_hash(): shard_of(s.content_hash(), 4)
                        for s in grown}
        for h, owner in owners_before.items():
            assert owners_after[h] == owner  # nothing moved

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ShardError, match="shards must be >= 1"):
            shard_of("ab" * 12, 0)


class TestManifest:
    def test_round_trip(self, tmp_path):
        specs = Campaign(_tiny_scenarios(), results_dir=tmp_path).specs()
        manifest = ShardManifest.from_specs("t", specs, 3)
        manifest.write(tmp_path)
        loaded = ShardManifest.load(tmp_path, "t")
        assert loaded == manifest
        assert loaded.spec_version == SPEC_VERSION
        assert loaded.assignments() == {
            s.content_hash(): shard_of(s.content_hash(), 3) for s in specs
        }

    def test_shard_hashes_partition_in_order(self, tmp_path):
        specs = Campaign(_tiny_scenarios(), results_dir=tmp_path).specs()
        manifest = ShardManifest.from_specs("t", specs, 2)
        combined = manifest.shard_hashes(0) + manifest.shard_hashes(1)
        assert sorted(combined) == sorted(manifest.spec_hashes)
        for i in (0, 1):  # per-shard order preserves grid order
            owned = [h for h in manifest.spec_hashes
                     if shard_of(h, 2) == i]
            assert manifest.shard_hashes(i) == owned

    def test_missing_manifest_is_actionable(self, tmp_path):
        with pytest.raises(ShardError, match="no checkpoint manifest"):
            ShardManifest.load(tmp_path, "ghost")

    def test_newer_manifest_version_refused(self, tmp_path):
        specs = Campaign(_tiny_scenarios(), results_dir=tmp_path).specs()
        d = ShardManifest.from_specs("t", specs, 1).to_dict()
        d["manifest_version"] = 99
        manifest_path(tmp_path, "t").write_text(json.dumps(d))
        with pytest.raises(ShardError, match="newer than this engine"):
            ShardManifest.load(tmp_path, "t")

    def test_stale_spec_version_refused_with_fix(self, tmp_path):
        specs = Campaign(_tiny_scenarios(), results_dir=tmp_path).specs()
        manifest = ShardManifest.from_specs("t", specs, 1)
        manifest.spec_version = SPEC_VERSION - 1
        with pytest.raises(ShardError, match="SPEC_VERSION.*without --resume"):
            manifest.validate_for("t", 1)

    def test_campaign_rename_refused(self, tmp_path):
        specs = Campaign(_tiny_scenarios(), results_dir=tmp_path).specs()
        manifest = ShardManifest.from_specs("t", specs, 1)
        with pytest.raises(ShardError, match="names campaign 't'"):
            manifest.validate_for("other", 1)

    def test_shard_count_change_refused(self, tmp_path):
        specs = Campaign(_tiny_scenarios(), results_dir=tmp_path).specs()
        manifest = ShardManifest.from_specs("t", specs, 2)
        with pytest.raises(ShardError, match="checkpointed with 2 shard"):
            manifest.validate_for("t", 3)

    def test_completion_reads_done_markers(self, tmp_path):
        campaign = Campaign(_tiny_scenarios(), name="t", results_dir=tmp_path)
        campaign.run(shards=2, shard_index=0)
        manifest = ShardManifest.load(tmp_path, "t")
        assert manifest.completion(tmp_path) == [True, False]

    def test_finished_unsharded_run_writes_one_manifest_without_completed(
            self, tmp_path, monkeypatch):
        writes = []
        real_write = ShardManifest.write
        monkeypatch.setattr(ShardManifest, "write",
                            lambda self, d: writes.append(d) or real_write(self, d))
        Campaign(_tiny_scenarios(), name="t", results_dir=tmp_path).run()
        assert len(writes) == 1
        assert "completed" not in json.loads(manifest_path(tmp_path, "t").read_text())

    def test_sharded_run_and_merge_leave_no_completed_key(self, tmp_path):
        for index in range(2):
            Campaign(_tiny_scenarios(), name="t", results_dir=tmp_path).run(
                shards=2, shard_index=index)
        merge_shards(tmp_path, "t")
        assert "completed" not in json.loads(manifest_path(tmp_path, "t").read_text())

    def test_manifest_with_a_completed_snapshot_loads_unchanged(self, tmp_path):
        specs = Campaign(_tiny_scenarios(), results_dir=tmp_path).specs()
        manifest = ShardManifest.from_specs("t", specs, 2)
        manifest_path(tmp_path, "t").write_text(
            json.dumps({**manifest.to_dict(), "completed": [True, False]}))
        assert ShardManifest.load(tmp_path, "t") == manifest


class TestPartialLoader:
    def _stream(self, tmp_path):
        campaign = Campaign(_tiny_scenarios(), name="t", results_dir=tmp_path,
                            use_cache=False)
        return campaign.run().jsonl_path

    def test_clean_stream_loads_fully(self, tmp_path):
        path = self._stream(tmp_path)
        records, torn, good = load_partial_records(path)
        assert (len(records), torn) == (5, 0)
        assert good == path.stat().st_size

    def test_missing_file_is_empty_stream(self, tmp_path):
        assert load_partial_records(tmp_path / "none.jsonl") == ([], 0, 0)

    @pytest.mark.parametrize("chop", [1, 10, 40])
    def test_torn_tail_detected_and_dropped(self, tmp_path, chop):
        path = self._stream(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-chop])
        records, torn, good = load_partial_records(path)
        assert torn == 1
        assert len(records) == 4
        assert data[:good].endswith(b"\n")

    def test_unterminated_but_parseable_tail_is_torn(self, tmp_path):
        # the newline itself was lost: the record parses but is not trusted
        path = self._stream(tmp_path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        records, torn, _good = load_partial_records(path)
        assert (len(records), torn) == (4, 1)

    def test_mid_stream_corruption_raises(self, tmp_path):
        path = self._stream(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-20]  # tear a *middle* line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ShardError, match="corrupt record mid-stream"):
            load_partial_records(path)

    def test_zero_byte_stream_is_empty_not_error(self, tmp_path):
        # A shard that crashed before its first fsync leaves a zero-byte
        # file; that is an empty stream to resume, not corruption.
        path = tmp_path / "zero.jsonl"
        path.write_bytes(b"")
        assert load_partial_records(path) == ([], 0, 0)

    def test_header_only_stream_is_one_torn_line(self, tmp_path):
        # Only the opening bytes of the first record landed: everything
        # is torn tail, nothing is trusted, nothing raises.
        path = tmp_path / "torn.jsonl"
        path.write_bytes(b'{"spec_version": 2, "spec"')
        records, torn, good = load_partial_records(path)
        assert (records, torn, good) == ([], 1, 0)

    def test_blank_lines_only_stream_is_empty(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_bytes(b"\n\n\n")
        records, torn, _good = load_partial_records(path)
        assert (records, torn) == ([], 0)


class TestStreamWriter:
    @pytest.mark.parametrize("ops,synced_at", [
        ("", []),
        ("w", [1]),                    # the tail, at close
        ("w" * 63, [63]),
        ("w" * 64, [64]),              # the window; close has nothing left
        ("w" * 65, [64, 65]),
        ("w" * 128, [64, 128]),
        ("r" * 100, [100]),            # replays never fill the window
        ("rrr" + "w" * 64, [67]),      # the window's fsync syncs the replays
        ("w" * 63 + "r" * 10 + "w", [74]),
        ("w" * 64 + "r", [64, 65]),    # a replayed tail, synced at close
    ], ids=["0", "1w", "63w", "64w", "65w", "128w", "100r", "3r64w",
            "63w10r1w", "64w1r"])
    def test_fsync_per_64_fresh_lines_plus_an_unsynced_tail(
            self, tmp_path, monkeypatch, ops, synced_at):
        path = tmp_path / "s.jsonl"
        lines_at_fsync = []
        real_fsync = os.fsync

        def fsync(fd):
            lines_at_fsync.append(path.read_bytes().count(b"\n"))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        with JsonlStreamWriter(path) as writer:
            for i, op in enumerate(ops):
                (writer.write if op == "w" else writer.write_replayed)({"i": i})
                # every line is on disk whole as soon as its call returns
                assert path.read_bytes().count(b"\n") == i + 1
                assert path.read_bytes().endswith(f'{{"i": {i}}}\n'.encode())
        assert lines_at_fsync == synced_at
        writer.close()  # a second close syncs nothing more
        assert lines_at_fsync == synced_at
        assert writer.written == len(ops)
        assert path.read_text() == "".join(
            f'{{"i": {j}}}\n' for j in range(len(ops)))


class TestMerge:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 8])
    def test_any_factorization_reproduces_single_run(self, tmp_path, shards):
        scenarios = _tiny_scenarios()
        mono = Campaign(scenarios, name="m", results_dir=tmp_path / "mono",
                        use_cache=False).run()
        sharded_dir = tmp_path / f"s{shards}"
        for index in range(shards):  # each shard as its own worker would
            Campaign(scenarios, name="m", results_dir=sharded_dir,
                     use_cache=False).run(shards=shards, shard_index=index)
        path, count = merge_shards(sharded_dir, "m")
        assert count == len(mono.records)
        assert _strip(path.read_text()) == _strip(mono.jsonl_path.read_text())

    def test_merge_before_completion_is_incomplete(self, tmp_path):
        Campaign(_tiny_scenarios(), name="t", results_dir=tmp_path).run(
            shards=3, shard_index=0)
        with pytest.raises(ShardIncomplete, match="no completion mark"):
            merge_shards(tmp_path, "t")

    def test_merge_detects_count_mismatch(self, tmp_path):
        Campaign(_tiny_scenarios(), name="t", results_dir=tmp_path).run(shards=2)
        stream = shard_stream_path(tmp_path, "t", 0, 2)
        lines = stream.read_text().splitlines()
        if len(lines) < 2:
            pytest.skip("shard 0 too small to drop a line")
        stream.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ShardIncomplete, match="marks .* complete"):
            merge_shards(tmp_path, "t")

    def test_merge_detects_torn_shard_despite_marker(self, tmp_path):
        Campaign(_tiny_scenarios(), name="t", results_dir=tmp_path).run(shards=2)
        stream = shard_stream_path(tmp_path, "t", 0, 2)
        stream.write_bytes(stream.read_bytes()[:-5])
        with pytest.raises(ShardIncomplete, match="torn"):
            merge_shards(tmp_path, "t")

    def test_merge_detects_foreign_record(self, tmp_path):
        Campaign(_tiny_scenarios(), name="t", results_dir=tmp_path).run(shards=2)
        foreign = next(Scenario(name="x", family="random_tree", sizes=(20,),
                                protocol="agm_connectivity", seeds=(9,)).expand())
        record = execute_run(foreign)
        stream = shard_stream_path(tmp_path, "t", 0, 2)
        n_lines = len(stream.read_text().splitlines())
        with stream.open("a") as fh:
            fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
        done = shard_done_path(tmp_path, "t", 0, 2)
        marker = json.loads(done.read_text())
        marker["records"] = n_lines + 1
        done.write_text(json.dumps(marker))
        with pytest.raises(ShardError, match="does not own"):
            merge_shards(tmp_path, "t")

    def test_merge_of_completed_monolithic_run_succeeds(self, tmp_path):
        campaign = Campaign(_tiny_scenarios(), name="t", results_dir=tmp_path,
                            use_cache=False)
        before = campaign.run().jsonl_path.read_text()
        path, count = merge_shards(tmp_path, "t")  # verify + canonical no-op
        assert count == 5
        assert _strip(path.read_text()) == _strip(before)

    def test_merge_of_interrupted_monolithic_run_is_retryable(self, tmp_path):
        campaign = Campaign(_tiny_scenarios(), name="t", results_dir=tmp_path,
                            use_cache=False)
        stream = campaign.run().jsonl_path
        stream.write_bytes(stream.read_bytes()[:-30])  # tear the tail
        with pytest.raises(ShardIncomplete, match="--resume"):
            merge_shards(tmp_path, "t")
        campaign.run(resume=True)  # the advice actually works
        path, count = merge_shards(tmp_path, "t")
        assert count == 5

    def test_auto_merge_path_equals_manual(self, tmp_path):
        scenarios = _tiny_scenarios()
        auto = Campaign(scenarios, name="a", results_dir=tmp_path / "a",
                        use_cache=False).run(shards=3)
        manual_dir = tmp_path / "b"
        for i in range(3):
            Campaign(scenarios, name="a", results_dir=manual_dir,
                     use_cache=False).run(shards=3, shard_index=i)
        path, _ = merge_shards(manual_dir, "a")
        assert _strip(auto.jsonl_path.read_text()) == _strip(path.read_text())
        # auto-merge hands records back in deduplicated grid order
        manifest = ShardManifest.load(tmp_path / "a", "a")
        assert [r.spec.content_hash() for r in auto.records] == manifest.spec_hashes


def _forest3(tmp_path):
    """A 3-run forest grid; no cache, so only resume can replay."""
    return Campaign(
        [Scenario(name="forest", family="random_forest", sizes=(12, 16, 20),
                  protocol="forest", seeds=(0,))],
        name="t", results_dir=tmp_path, use_cache=False,
    )


class TestOneShardLayout:
    """An unsharded campaign is shard 0 of 1: one stream, one mark."""

    def test_one_shard_paths_are_the_canonical_stem(self, tmp_path):
        assert shard_stream_path(tmp_path, "t", 0, 1) == tmp_path / "t.jsonl"
        assert shard_done_path(tmp_path, "t", 0, 1) == tmp_path / "t.done"
        assert shard_stream_path(tmp_path, "t", 1, 2) == (
            tmp_path / "t.shard-1-of-2.jsonl"
        )
        assert shard_done_path(tmp_path, "t", 1, 2) == (
            tmp_path / "t.shard-1-of-2.done"
        )

    @pytest.mark.parametrize("first, second", [
        ({}, {"shards": 1}),
        ({"shards": 1, "shard_index": 0}, {}),
    ], ids=["unsharded-then-one-shard", "one-shard-then-unsharded"])
    def test_resume_across_layouts_replays_every_record(
            self, tmp_path, first, second):
        campaign = _forest3(tmp_path)
        campaign.run(**first)
        again = campaign.run(resume=True, **second)
        assert (again.resumed, again.cache_misses) == (3, 0)
        assert not list(tmp_path.glob("*.shard-*"))

    def test_results_dir_without_a_mark_is_resumed_then_merged(self, tmp_path):
        # Earlier engines left an unsharded run without t.done.
        campaign = _forest3(tmp_path)
        before = campaign.run().jsonl_path.read_text()
        (tmp_path / "t.done").unlink()
        with pytest.raises(ShardIncomplete, match="--resume"):
            merge_shards(tmp_path, "t")
        again = campaign.run(resume=True)
        assert (again.resumed, again.cache_misses) == (3, 0)
        path, count = merge_shards(tmp_path, "t")
        assert count == 3
        assert _strip(path.read_text()) == _strip(before)


class TestRunValidation:
    def test_shard_index_requires_shards(self, tmp_path):
        campaign = Campaign(_tiny_scenarios(), results_dir=tmp_path)
        with pytest.raises(ShardError, match="shard_index requires shards"):
            campaign.run(shard_index=0)

    def test_shard_index_out_of_range(self, tmp_path):
        campaign = Campaign(_tiny_scenarios(), results_dir=tmp_path)
        with pytest.raises(ShardError, match="out of range"):
            campaign.run(shards=2, shard_index=2)

    def test_sharding_requires_results_dir(self):
        campaign = Campaign(_tiny_scenarios(), results_dir=None)
        with pytest.raises(ShardError, match="need a results_dir"):
            campaign.run(shards=2)

    def test_resume_requires_results_dir(self):
        campaign = Campaign(_tiny_scenarios(), results_dir=None)
        with pytest.raises(ShardError, match="need a results_dir"):
            campaign.run(resume=True)

    def test_every_persisted_run_writes_a_manifest(self, tmp_path):
        Campaign(_tiny_scenarios(), name="t", results_dir=tmp_path).run()
        manifest = ShardManifest.load(tmp_path, "t")
        assert manifest.shards == 1
        assert len(manifest.spec_hashes) == 5
