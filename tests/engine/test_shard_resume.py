"""Crash/resume battery: kill after K of N runs, resume, compare bytes.

The acceptance invariant: a campaign killed mid-flight and resumed
produces a JSONL byte-identical (modulo the ``timing``/``cached``
sidecars) to an uninterrupted run, re-executing *only* the specs whose
records were not yet durable.  The kill is simulated by patching the
executor-facing ``execute_run`` to raise after K successful runs —
exactly what ``kill -9`` leaves behind, because the stream writer fsyncs
every line.

K, N, shard count, and the kill schedule are fuzzed with seeded sweeps
(`random.Random(seed)`), so failures replay exactly.
"""

import json
import random

import pytest

import repro.engine.campaign as campaign_module
from repro.engine import (
    Campaign,
    Scenario,
    ThreadPoolExecutor,
    merge_shards,
)
from repro.engine.scenario import execute_run


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
        assert len(durable) == 3  # fsync-per-record made exactly K durable

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
