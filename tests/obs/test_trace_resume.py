"""Trace streams across kill/resume: durable events, zero duplication.

The event stream rides the same writer as the records (every event
flushed whole, fsynced once per 64 events and at close), so a crash
costs at most the final (torn) event; on ``--resume`` the torn tail is
truncated, completed-run events survive, replayed records emit
*nothing*, and only the genuinely re-executed specs append new spans.
The invariant checked throughout: exactly one ``run`` span per spec
hash, no matter how many times the campaign died on the way.
"""

import os

import pytest

import repro.engine.campaign as campaign_module
from repro.engine import Campaign, Scenario
from repro.engine.scenario import execute_run
from repro.obs.events import load_partial_events


def load_events(path):
    """The whole event stream at ``path``; a missing file or torn tail fails."""
    assert os.path.exists(path)
    events, torn, _good = load_partial_events(path)
    assert not torn
    return events


class SimulatedCrash(RuntimeError):
    """Stands in for kill -9: escapes the engine entirely."""


def _grid(n_seeds):
    return [
        Scenario(name="forest", family="random_forest", sizes=(12,),
                 protocol="forest", seeds=tuple(range(n_seeds))),
    ]


@pytest.fixture()
def crash_after(monkeypatch):
    def arm(k):
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


def _run_spans(events):
    return [e for e in events if e["kind"] == "span" and e["name"] == "run"]


class TestCrashDurability:
    def test_completed_run_events_survive_the_crash(self, tmp_path, crash_after):
        crash_after(3)
        campaign = Campaign(_grid(6), name="c", results_dir=tmp_path,
                            use_cache=False)
        with pytest.raises(SimulatedCrash):
            campaign.run(trace=True)
        events, torn, _good = load_partial_events(tmp_path / "c.events.jsonl")
        assert torn in (0, 1)
        runs = _run_spans(events)
        assert len(runs) == 3  # the runs that landed before the kill
        # The crash itself is on the record too.
        crashes = [e for e in events
                   if e["kind"] == "mark" and e["name"] == "worker-crash"]
        assert len(crashes) == 1


class TestResumeNoDuplication:
    def test_resume_appends_only_the_missing_runs(self, tmp_path, crash_after):
        campaign = Campaign(_grid(6), name="c", results_dir=tmp_path,
                            use_cache=False)
        crash_after(4)
        with pytest.raises(SimulatedCrash):
            campaign.run(trace=True)
        crash_after(10**9)  # disarm
        result = campaign.run(trace=True, resume=True)
        events = load_events(tmp_path / "c.events.jsonl")  # clean stream now

        runs = _run_spans(events)
        hashes = [s["attrs"]["spec"] for s in runs]
        assert len(hashes) == len(set(hashes)) == 6  # one span per spec, ever
        assert result.resumed == 4

        replays = [e for e in events
                   if e["kind"] == "mark" and e["name"] == "resume-replay"]
        assert [r["attrs"]["replayed"] for r in replays] == [4]

    def test_double_crash_resume_still_never_duplicates(self, tmp_path,
                                                        crash_after):
        campaign = Campaign(_grid(8), name="c", results_dir=tmp_path,
                            use_cache=False)
        for k in (3, 2):
            crash_after(k)
            with pytest.raises(SimulatedCrash):
                campaign.run(trace=True, resume=(k != 3))
        crash_after(10**9)
        result = campaign.run(trace=True, resume=True)
        events = load_events(tmp_path / "c.events.jsonl")
        hashes = [s["attrs"]["spec"] for s in _run_spans(events)]
        assert len(hashes) == len(set(hashes)) == 8
        assert result.resumed == 5

    def test_resume_truncates_a_torn_event_tail(self, tmp_path, crash_after):
        campaign = Campaign(_grid(4), name="c", results_dir=tmp_path,
                            use_cache=False)
        crash_after(2)
        with pytest.raises(SimulatedCrash):
            campaign.run(trace=True)
        ev_path = tmp_path / "c.events.jsonl"
        with ev_path.open("ab") as fh:
            fh.write(b'{"v": 1, "kind": "sp')  # simulate a mid-line kill
        crash_after(10**9)
        campaign.run(trace=True, resume=True)
        events = load_events(ev_path)  # strict: a leftover tear would raise
        assert len(_run_spans(events)) == 4

    def test_resumed_records_count_in_metrics_not_spans(self, tmp_path,
                                                        crash_after):
        campaign = Campaign(_grid(6), name="c", results_dir=tmp_path,
                            use_cache=False)
        crash_after(4)
        with pytest.raises(SimulatedCrash):
            campaign.run(trace=True)
        crash_after(10**9)
        result = campaign.run(trace=True, resume=True)
        counters = result.metrics["counters"]
        assert counters["runs_resumed"] == 4
        assert counters["runs_started"] == 2  # only the re-executed tail


class TestEventStreamSyncs:
    def test_fsynced_once_per_64_events_plus_an_unsynced_tail(
            self, tmp_path, monkeypatch):
        ev_path = tmp_path / "c.events.jsonl"
        lines_at_fsync = []
        real_fsync = os.fsync

        def fsync(fd):
            if ev_path.exists() and os.path.samestat(os.fstat(fd),
                                                     os.stat(ev_path)):
                lines_at_fsync.append(ev_path.read_bytes().count(b"\n"))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        Campaign(_grid(30), name="c", results_dir=tmp_path,
                 use_cache=False).run(trace=True)
        events = ev_path.read_bytes().count(b"\n")
        assert events > 2 * 64
        # Every event is a fresh line: fresh // 64 + (1 if a tail is unsynced).
        tail = 1 if events % 64 else 0
        assert len(lines_at_fsync) == events // 64 + tail
        assert lines_at_fsync == \
               [64 * (k + 1) for k in range(events // 64)] + [events] * tail
