"""Crash/resume battery: kill after K of N runs, resume, compare bytes.

The acceptance invariant: a campaign killed mid-flight and resumed
produces a JSONL byte-identical (modulo the ``timing``/``cached``
sidecars) to an uninterrupted run, re-executing *only* the specs whose
records were not yet durable.  The kill is simulated by patching the
executor-facing ``execute_run`` to raise after K successful runs —
exactly what ``kill -9`` leaves behind, because the stream writer
flushes every line whole before the next run lands (the page cache
keeps it whatever the fsync window).  A re-run that mixes replayed and
fresh records is killed after every one of its writes instead, from
snapshots of the stream's bytes.  A power loss can also take the lines
written since the last fsync (one per 64 fresh records, and one at
close): ``TestPowerLoss`` cuts streams back to every synced size and
every whole-line point after it, and resumes each.

K, N, shard count, and the kill schedule are fuzzed with seeded sweeps
(`random.Random(seed)`), so failures replay exactly.
"""

import json
import os
import pathlib
import random
import shutil

import pytest

import repro.engine.campaign as campaign_module
from repro.engine import (
    Campaign,
    Scenario,
    ThreadPoolExecutor,
    merge_shards,
)
from repro.engine.scenario import execute_run
from repro.engine.shard import JsonlStreamWriter, load_partial_records


class SimulatedCrash(RuntimeError):
    """Stands in for kill -9: escapes the engine entirely."""


def _grid(n_seeds: int, *, sizes=(12,)) -> list[Scenario]:
    """A forest grid with ``n_seeds`` seeds per size — N = len(sizes)*n_seeds."""
    return [
        Scenario(name="forest", family="random_forest", sizes=tuple(sizes),
                 protocol="forest", seeds=tuple(range(n_seeds))),
    ]


def _strip(jsonl_text):
    out = []
    for line in jsonl_text.splitlines():
        d = json.loads(line)
        d.pop("timing")
        d.pop("cached")
        out.append(json.dumps(d, sort_keys=True))
    return out


@pytest.fixture()
def crash_after(monkeypatch):
    """Patch the campaign's execute_run to blow up after K successes."""

    def arm(k: int):
        state = {"left": k}

        def crashing(spec):
            if state["left"] <= 0:
                raise SimulatedCrash(f"killed after {k} run(s)")
            state["left"] -= 1
            return execute_run(spec)

        monkeypatch.setattr(campaign_module, "execute_run", crashing)
        return state

    yield arm
    monkeypatch.setattr(campaign_module, "execute_run", execute_run)


class TestMonolithicResume:
    def test_kill_resume_matches_uninterrupted(self, tmp_path, crash_after):
        scenarios = _grid(6)
        clean = Campaign(scenarios, name="c", results_dir=tmp_path / "clean",
                         use_cache=False).run()
        crash_after(3)
        interrupted = Campaign(scenarios, name="c", results_dir=tmp_path / "r",
                               use_cache=False)
        with pytest.raises(SimulatedCrash):
            interrupted.run()
        durable = (tmp_path / "r" / "c.jsonl").read_text().splitlines()
        assert len(durable) == 3  # every flushed line outlives a kill: K

        crash_after(10**9)  # disarm
        resumed = Campaign(scenarios, name="c", results_dir=tmp_path / "r",
                           use_cache=False).run(resume=True)
        assert resumed.resumed == 3
        assert resumed.cache_misses == 3  # only the missing specs re-ran
        assert _strip((tmp_path / "r" / "c.jsonl").read_text()) == \
               _strip(clean.jsonl_path.read_text())

    def test_resume_of_complete_run_recomputes_nothing(self, tmp_path, crash_after):
        scenarios = _grid(4)
        Campaign(scenarios, name="c", results_dir=tmp_path, use_cache=False).run()
        crash_after(0)  # any execution would crash — there must be none
        again = Campaign(scenarios, name="c", results_dir=tmp_path,
                         use_cache=False).run(resume=True)
        assert again.resumed == len(again.records) == 4
        assert again.cache_misses == 0

    def test_double_crash_double_resume(self, tmp_path, crash_after):
        scenarios = _grid(8)
        clean = Campaign(scenarios, name="c", results_dir=tmp_path / "clean",
                         use_cache=False).run()
        for k in (2, 3):
            crash_after(k)
            with pytest.raises(SimulatedCrash):
                Campaign(scenarios, name="c", results_dir=tmp_path / "r",
                         use_cache=False).run(resume=(k != 2))
        crash_after(10**9)
        final = Campaign(scenarios, name="c", results_dir=tmp_path / "r",
                         use_cache=False).run(resume=True)
        assert final.resumed == 5  # 2 survived the first crash, 3 the second
        assert _strip((tmp_path / "r" / "c.jsonl").read_text()) == \
               _strip(clean.jsonl_path.read_text())

    def test_torn_tail_re_executed_not_trusted(self, tmp_path, crash_after):
        scenarios = _grid(5)
        clean = Campaign(scenarios, name="c", results_dir=tmp_path / "clean",
                         use_cache=False).run()
        run_dir = tmp_path / "r"
        Campaign(scenarios, name="c", results_dir=run_dir, use_cache=False).run()
        stream = run_dir / "c.jsonl"
        stream.write_bytes(stream.read_bytes()[:-17])  # tear the tail
        resumed = Campaign(scenarios, name="c", results_dir=run_dir,
                           use_cache=False).run(resume=True)
        assert resumed.resumed == 4
        assert resumed.cache_misses == 1  # the torn spec re-ran
        assert _strip(stream.read_text()) == _strip(clean.jsonl_path.read_text())


class TestShardedResume:
    @pytest.mark.parametrize("sweep_seed", range(6))
    def test_fuzzed_kill_points_across_shards(self, tmp_path, crash_after,
                                              sweep_seed):
        """Seeded sweep over (N, shards, K, kill schedule)."""
        rng = random.Random(0xC0FFEE + sweep_seed)
        n_seeds = rng.randint(3, 7)
        shards = rng.randint(2, 4)
        scenarios = _grid(n_seeds, sizes=(12, 14))
        n_specs = 2 * n_seeds

        clean = Campaign(scenarios, name="c", results_dir=tmp_path / "clean",
                         use_cache=False).run()
        shard_dir = tmp_path / "sharded"

        for index in range(shards):
            campaign = Campaign(scenarios, name="c", results_dir=shard_dir,
                                use_cache=False)
            k = rng.randint(0, n_specs)  # may exceed the shard: no crash then
            crash_after(k)
            crashed = False
            try:
                campaign.run(shards=shards, shard_index=index)
            except SimulatedCrash:
                crashed = True
            if crashed:
                crash_after(10**9)
                resumed = Campaign(scenarios, name="c", results_dir=shard_dir,
                                   use_cache=False).run(
                    shards=shards, shard_index=index, resume=True)
                assert resumed.resumed == k  # exactly the durable prefix

        path, count = merge_shards(shard_dir, "c")
        assert count == n_specs
        assert _strip(path.read_text()) == _strip(clean.jsonl_path.read_text())

    def test_resume_skips_completed_shards_entirely(self, tmp_path, crash_after):
        scenarios = _grid(6)
        shard_dir = tmp_path / "s"
        Campaign(scenarios, name="c", results_dir=shard_dir,
                 use_cache=False).run(shards=2, shard_index=0)
        crash_after(0)
        again = Campaign(scenarios, name="c", results_dir=shard_dir,
                         use_cache=False).run(shards=2, shard_index=0,
                                              resume=True)
        assert again.cache_misses == 0
        assert again.resumed == len(again.records)

    def test_all_shard_resume_after_kill(self, tmp_path, crash_after):
        """shards=N without an index: one process, checkpointed end to end."""
        scenarios = _grid(7)
        clean = Campaign(scenarios, name="c", results_dir=tmp_path / "clean",
                         use_cache=False).run()
        shard_dir = tmp_path / "s"
        crash_after(4)
        with pytest.raises(SimulatedCrash):
            Campaign(scenarios, name="c", results_dir=shard_dir,
                     use_cache=False).run(shards=3)
        crash_after(10**9)
        final = Campaign(scenarios, name="c", results_dir=shard_dir,
                         use_cache=False).run(shards=3, resume=True)
        assert final.resumed == 4
        assert final.cache_misses == len(clean.records) - 4
        assert _strip(final.jsonl_path.read_text()) == \
               _strip(clean.jsonl_path.read_text())


class TestExecutorBackends:
    def test_thread_pool_resume_matches_serial(self, tmp_path, crash_after):
        scenarios = _grid(6)
        clean = Campaign(scenarios, name="c", results_dir=tmp_path / "clean",
                         use_cache=False).run()
        run_dir = tmp_path / "t"
        crash_after(3)
        with ThreadPoolExecutor(2) as ex:
            with pytest.raises(SimulatedCrash):
                Campaign(scenarios, name="c", results_dir=run_dir,
                         use_cache=False).run(ex)
        durable, = [len((run_dir / "c.jsonl").read_text().splitlines())]
        assert durable <= 3  # never MORE durable records than successes
        crash_after(10**9)
        with ThreadPoolExecutor(2) as ex:
            resumed = Campaign(scenarios, name="c", results_dir=run_dir,
                               use_cache=False).run(ex, resume=True)
        assert _strip((run_dir / "c.jsonl").read_text()) == \
               _strip(clean.jsonl_path.read_text())
        assert resumed.resumed == durable

    def test_cache_and_resume_compose(self, tmp_path, crash_after):
        """With the cache on, resumed *and* cached work are both replayed."""
        scenarios = _grid(6)
        run_dir = tmp_path / "r"
        warm = Campaign(scenarios, name="a", results_dir=run_dir).run()
        assert warm.cache_misses == 6
        crash_after(2)
        with pytest.raises(SimulatedCrash):
            Campaign(scenarios, name="c", results_dir=run_dir,
                     use_cache=False).run()
        crash_after(0)  # nothing may execute
        # c's own stream holds 2 durable records; a's stream serves the rest
        again = Campaign(scenarios, name="c", results_dir=run_dir).run(resume=True)
        assert again.resumed == 2
        assert again.cache_hits == 4
        assert again.cache_misses == 0
        assert _strip((run_dir / "c.jsonl").read_text()) == \
               _strip((run_dir / "a.jsonl").read_text())


class TestResumeSurvivesGridChanges:
    """Hash-based membership means checkpoints outlive grid edits."""

    def test_resume_after_scenario_reordering(self, tmp_path, crash_after):
        scenarios = [
            Scenario(name="a", family="random_forest", sizes=(12,),
                     protocol="forest", seeds=(0, 1, 2)),
            Scenario(name="b", family="random_tree", sizes=(12, 14),
                     protocol="agm_connectivity", seeds=(0,)),
        ]
        Campaign(scenarios, name="c", results_dir=tmp_path,
                 use_cache=False).run()
        crash_after(0)  # nothing may execute: every record must replay
        reordered = Campaign(list(reversed(scenarios)), name="c",
                             results_dir=tmp_path, use_cache=False)
        resumed = reordered.run(resume=True)
        assert resumed.resumed == 5
        assert resumed.cache_misses == 0
        # the rewritten stream is canonical for the *new* grid order
        crash_after(10**9)
        clean = Campaign(list(reversed(scenarios)), name="c",
                         results_dir=tmp_path / "clean", use_cache=False).run()
        assert _strip((tmp_path / "c.jsonl").read_text()) == \
               _strip(clean.jsonl_path.read_text())

    def test_resume_after_adding_a_scenario(self, tmp_path, crash_after):
        base = [Scenario(name="a", family="random_forest", sizes=(12,),
                         protocol="forest", seeds=(0, 1, 2))]
        Campaign(base, name="c", results_dir=tmp_path, use_cache=False).run()
        grown = base + [Scenario(name="b", family="random_tree", sizes=(12,),
                                 protocol="agm_connectivity", seeds=(0,))]
        crash_after(1)  # exactly the one new spec may execute
        resumed = Campaign(grown, name="c", results_dir=tmp_path,
                           use_cache=False).run(resume=True)
        assert resumed.resumed == 3
        assert resumed.cache_misses == 1
        assert len(resumed.records) == 4

    def test_resume_after_removing_a_scenario_drops_stale_records(
            self, tmp_path, crash_after):
        scenarios = [
            Scenario(name="a", family="random_forest", sizes=(12,),
                     protocol="forest", seeds=(0, 1)),
            Scenario(name="b", family="random_tree", sizes=(12,),
                     protocol="agm_connectivity", seeds=(0,)),
        ]
        Campaign(scenarios, name="c", results_dir=tmp_path,
                 use_cache=False).run()
        crash_after(0)
        shrunk = Campaign(scenarios[:1], name="c", results_dir=tmp_path,
                          use_cache=False)
        resumed = shrunk.run(resume=True)
        assert resumed.resumed == len(resumed.records) == 2
        # the stale connectivity record is gone from the rewritten stream
        lines = (tmp_path / "c.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(l)["spec"]["protocol"] == "forest" for l in lines)

    def test_sharded_resume_after_grid_growth(self, tmp_path, crash_after):
        base = _grid(4)
        shard_dir = tmp_path / "s"
        for i in range(2):
            Campaign(base, name="c", results_dir=shard_dir,
                     use_cache=False).run(shards=2, shard_index=i)
        grown = _grid(6)  # two new seeds join the grid
        crash_after(2)  # only the two new specs may execute (across shards)
        total_resumed = total_missed = 0
        for i in range(2):
            r = Campaign(grown, name="c", results_dir=shard_dir,
                         use_cache=False).run(shards=2, shard_index=i,
                                              resume=True)
            total_resumed += r.resumed
            total_missed += r.cache_misses
        assert total_resumed == 4
        assert total_missed == 2
        path, count = merge_shards(shard_dir, "c")
        assert count == 6
        crash_after(10**9)
        clean = Campaign(grown, name="c", results_dir=tmp_path / "clean",
                         use_cache=False).run()
        assert _strip(path.read_text()) == _strip(clean.jsonl_path.read_text())


def _replay_setup(run_dir, scenarios, dropped):
    """Run the grid into ``run_dir``, then drop the records at the indices
    in ``dropped`` from its stream: a plain re-run replays the rest as
    cache hits and executes the dropped specs fresh."""
    Campaign(scenarios, name="c", results_dir=run_dir).run()
    stream = run_dir / "c.jsonl"
    lines = stream.read_text().splitlines(keepends=True)
    stream.write_text("".join(l for i, l in enumerate(lines) if i not in dropped))


class TestReplayRun:
    """A re-run mixing cache hits (``write_replayed``: flushed, outside
    the fsync window) with fresh records (``write``: flushed, fsynced
    once per 64)."""

    def test_kill_after_every_write_resumes_to_the_same_stream(
            self, tmp_path, monkeypatch):
        scenarios = _grid(12)
        clean = Campaign(scenarios, name="c", results_dir=tmp_path / "clean",
                         use_cache=False).run()
        run_dir = tmp_path / "r"
        _replay_setup(run_dir, scenarios, dropped=set(range(0, 12, 2)))
        manifest = (run_dir / "c.manifest.json").read_bytes()

        # What a kill -9 leaves: the stream's bytes on disk right after the
        # truncating open and after each write, flushed or fsynced.
        snapshots = [b""]
        for name in ("write", "write_replayed"):
            def spy(self, record, _original=getattr(JsonlStreamWriter, name)):
                _original(self, record)
                snapshots.append(self.path.read_bytes())
            monkeypatch.setattr(JsonlStreamWriter, name, spy)
        rerun = Campaign(scenarios, name="c", results_dir=run_dir).run()
        monkeypatch.undo()
        assert (rerun.cache_hits, rerun.cache_misses) == (6, 6)
        assert _strip((run_dir / "c.jsonl").read_text()) == \
               _strip(clean.jsonl_path.read_text())
        assert len(snapshots) == 13
        for i, snap in enumerate(snapshots):
            assert snap.count(b"\n") == i and snap.endswith(b"\n") == (i > 0)

        executed = []

        def counting(spec):
            executed.append(spec.content_hash())
            return execute_run(spec)

        monkeypatch.setattr(campaign_module, "execute_run", counting)
        every = {r.spec.content_hash() for r in clean.records}
        for i, snap in enumerate(snapshots):
            killed = tmp_path / f"kill-{i}"
            killed.mkdir()
            (killed / "c.manifest.json").write_bytes(manifest)
            (killed / "c.jsonl").write_bytes(snap)
            held, torn, _ = load_partial_records(killed / "c.jsonl")
            assert torn == 0
            executed.clear()
            resumed = Campaign(scenarios, name="c",
                               results_dir=killed).run(resume=True)
            assert resumed.resumed == len(held) == i
            # only the specs missing from the snapshot re-execute
            assert sorted(executed) == \
                   sorted(every - {r.spec.content_hash() for r in held})
            assert _strip((killed / "c.jsonl").read_text()) == \
                   _strip(clean.jsonl_path.read_text())

    # fsyncs = fresh // 64 + (1 if a tail is unsynced at close)
    @pytest.mark.parametrize("n,dropped,fsyncs", [
        (12, range(0, 12, 2), 6 // 64 + 1),  # 6 fresh, synced at close
        (12, (), 0 // 64 + 1),       # all replayed: close syncs them once
        (12, (11,), 1 // 64 + 1),    # a fresh last record: still at close
        (12, range(12), 12 // 64 + 1),       # nothing to replay
        (140, range(0, 140, 2), 70 // 64 + 1),  # one window, then a tail
        (140, range(140), 140 // 64 + 1),    # two windows, then a tail
        (128, range(128), 128 // 64 + 0),    # the last window ends it
        (130, range(64), 64 // 64 + 1),      # a window, then replayed tail
    ])
    def test_stream_fsynced_once_per_64_fresh_records_and_before_its_mark(
            self, tmp_path, monkeypatch, n, dropped, fsyncs):
        scenarios = _grid(n)
        _replay_setup(tmp_path, scenarios, set(dropped))
        stream = tmp_path / "c.jsonl"
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            if os.path.samestat(os.fstat(fd), os.stat(stream)):
                events.append("stream-fsync")
            real_fsync(fd)

        def replace(src, dst):
            events.append(pathlib.Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        rerun = Campaign(scenarios, name="c", results_dir=tmp_path).run()
        monkeypatch.undo()
        assert rerun.cache_misses == len(dropped)
        assert events.count("stream-fsync") == fsyncs
        last_fsync = max(i for i, e in enumerate(events) if e == "stream-fsync")
        assert last_fsync < events.index("c.done")


def _record_syncs(monkeypatch, stream):
    """Swap ``os.fsync`` for a recorder of ``stream``'s size at each of its
    syncs: what a power loss at that moment would keep.  Temp files need
    no real fsync, so none is made."""
    synced = []

    def fsync(fd):
        st = os.fstat(fd)
        if stream.exists() and os.path.samestat(st, os.stat(stream)):
            synced.append(st.st_size)

    monkeypatch.setattr(os, "fsync", fsync)
    return synced


def _line_ends(data):
    """Every whole-line point of ``data``: 0 and each offset past a newline."""
    return [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]


class TestPowerLoss:
    """A power loss keeps a stream up to its last fsync, and possibly some
    whole lines after it.  Each such cut, resumed, must give the
    uninterrupted stream and execute exactly the specs the cut lost."""

    N = 2 * 64 + 12  # two full windows and a tail

    @pytest.mark.parametrize("dropped,synced_lines", [
        (None, [64, 128, N]),  # a fresh run: two windows, the tail at close
        # A re-run of 93 fresh and 47 replayed records: the 64th fresh one
        # is line 96; close syncs the 29 fresh and 15 replayed after it.
        ({i for i in range(N) if i % 3}, [96, N]),
    ], ids=["fresh-run", "mixed-rerun"])
    def test_cut_at_every_synced_size_and_line_after(
            self, tmp_path, monkeypatch, dropped, synced_lines):
        scenarios = _grid(self.N)
        clean = Campaign(scenarios, name="c", results_dir=tmp_path / "clean",
                         use_cache=False).run()
        run_dir = tmp_path / "r"
        if dropped is None:
            run_dir.mkdir()
        else:
            _replay_setup(run_dir, scenarios, dropped)
        synced = _record_syncs(monkeypatch, run_dir / "c.jsonl")
        run = Campaign(scenarios, name="c", results_dir=run_dir).run()
        assert run.cache_misses == len(dropped or range(self.N))
        data = (run_dir / "c.jsonl").read_bytes()
        manifest = (run_dir / "c.manifest.json").read_bytes()
        ends = _line_ends(data)
        assert synced == [ends[k] for k in synced_lines]

        executed = []

        def counting(spec):
            executed.append(spec.content_hash())
            return execute_run(spec)

        monkeypatch.setattr(campaign_module, "execute_run", counting)
        every = {r.spec.content_hash() for r in clean.records}
        # Cut 0 stands for a loss before the first fsync took everything
        # (the truncating open itself); a prefix short of the first window
        # resumes like any killed one, which the kill battery covers.
        cut_dir = tmp_path / "cut"
        for cut in [0] + [p for p in ends if p >= synced[0]]:
            cut_dir.mkdir()
            (cut_dir / "c.manifest.json").write_bytes(manifest)
            (cut_dir / "c.jsonl").write_bytes(data[:cut])
            held, torn, _ = load_partial_records(cut_dir / "c.jsonl")
            assert torn == 0
            executed.clear()
            resumed = Campaign(scenarios, name="c",
                               results_dir=cut_dir).run(resume=True)
            assert resumed.resumed == len(held)
            assert sorted(executed) == \
                   sorted(every - {r.spec.content_hash() for r in held})
            assert _strip((cut_dir / "c.jsonl").read_text()) == \
                   _strip(clean.jsonl_path.read_text())
            shutil.rmtree(cut_dir)
