"""Scheduler-layer unit battery: validation, admission, retry policy.

End-to-end behavior (real sockets, real campaigns) lives in
``test_service.py``; these tests pin the pieces that do not need a
server: submission validation, constructor fail-fast, and the
crash-retry loop driven through a stubbed shard runner.
"""

import asyncio

import pytest

from repro.cli import main
from repro.engine.shard import ShardManifest
from repro.errors import QueueFull, ServeError, WorkerCrash
from repro.results.trends import campaign_trend_key, load_points, trends_path
from repro.serve.queue import Scheduler, validate_submission
from repro.serve.store import JobStore


# --------------------------------------------------------------------- #
# validate_submission
# --------------------------------------------------------------------- #


def test_validate_requires_exactly_one_source():
    with pytest.raises(ServeError, match="exactly one"):
        validate_submission({})
    with pytest.raises(ServeError, match="exactly one"):
        validate_submission({"campaign": "smoke", "spec": {}})
    with pytest.raises(ServeError, match="JSON object"):
        validate_submission([1, 2])


def test_validate_unknown_builtin_keeps_did_you_mean():
    with pytest.raises(ServeError, match="smoke"):
        validate_submission({"campaign": "smokee"})


def test_validate_builtin_and_spec_shapes():
    payload, name = validate_submission({"campaign": "smoke"})
    assert payload == {"builtin": "smoke"} and name == "smoke"
    spec = {"name": "inline", "scenarios": [{
        "name": "s", "family": "random_forest", "sizes": [12],
        "protocol": "forest", "seeds": [0],
    }]}
    payload, name = validate_submission({"spec": spec})
    assert payload == {"spec": spec} and name == "inline"
    with pytest.raises(ServeError, match="invalid campaign spec"):
        validate_submission({"spec": {"name": "empty"}})
    with pytest.raises(ServeError, match="spec"):
        validate_submission({"spec": "not-an-object"})


# --------------------------------------------------------------------- #
# constructor + admission
# --------------------------------------------------------------------- #


def test_scheduler_constructor_fails_fast(tmp_path):
    store = JobStore(tmp_path)
    with pytest.raises(ServeError, match="workers"):
        Scheduler(store, workers=-1)
    with pytest.raises(ServeError, match="queue_limit"):
        Scheduler(store, queue_limit=0)
    with pytest.raises(Exception, match="executor"):
        Scheduler(store, executor="gpu")


def _scheduler(tmp_path, **kwargs):
    kwargs.setdefault("workers", 0)  # no loop needed: admission only
    kwargs.setdefault("executor", "serial")
    return Scheduler(JobStore(tmp_path), **kwargs)


def test_submit_validates_payload_fields(tmp_path):
    sched = _scheduler(tmp_path)
    with pytest.raises(ServeError, match="priority"):
        sched.submit({"campaign": "smoke", "priority": "urgent"})
    with pytest.raises(ServeError, match="shards"):
        sched.submit({"campaign": "smoke", "shards": 0})
    with pytest.raises(ServeError, match="shards"):
        sched.submit({"campaign": "smoke", "shards": "2"})
    with pytest.raises(ServeError, match="jobs"):
        sched.submit({"campaign": "smoke", "jobs": "four"})
    with pytest.raises(ServeError, match="executor|unknown"):
        sched.submit({"campaign": "smoke", "executor": "gpu"})


def test_admission_bounds_active_jobs_and_counts_rejects(tmp_path):
    sched = _scheduler(tmp_path, queue_limit=2)
    sched.submit({"campaign": "smoke"})
    sched.submit({"campaign": "smoke", "shards": 3})
    with pytest.raises(QueueFull) as exc_info:
        sched.submit({"campaign": "smoke"})
    assert exc_info.value.retry_after >= 1.0
    counters = sched.metrics.to_dict()["counters"]
    assert counters["serve_admission_rejects"] == 1
    assert counters["serve_jobs_submitted"] == 2
    # a terminal job frees its slot
    sched._finish(sched.store.get("j000001"), "cancelled")
    assert sched.submit({"campaign": "smoke"})["id"] == "j000003"


def test_queue_depth_counts_shard_assignments(tmp_path):
    sched = _scheduler(tmp_path)
    assert sched.queue_depth() == 0
    sched.submit({"campaign": "smoke", "shards": 3})
    sched.submit({"campaign": "smoke"})
    assert sched.queue_depth() == 4  # 3 + 1 assignments, jobs bound admission


def test_cancel_semantics_without_workers(tmp_path):
    sched = _scheduler(tmp_path)
    job = sched.submit({"campaign": "smoke"})
    cancelled = sched.cancel(job["id"])
    assert cancelled["state"] == "cancelled"
    with pytest.raises(ServeError, match="already cancelled"):
        sched.cancel(job["id"])
    running = sched.submit({"campaign": "smoke"})
    sched.store.update(running["id"], state="running")
    flagged = sched.cancel(running["id"])
    assert flagged["state"] == "running" and flagged["cancel_requested"]


# --------------------------------------------------------------------- #
# the retry loop, driven through a stubbed shard runner
# --------------------------------------------------------------------- #


class _FakeResult:
    records = ()
    resumed = 0
    cache_hits = 0
    metrics = None


def _run_assignment_with(sched, monkeypatch, outcomes):
    """Drive one assignment; ``outcomes`` yields per-attempt behaviors."""
    attempts = iter(outcomes)

    def fake_run_shard(job, index):
        outcome = next(attempts)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(sched, "_run_shard", fake_run_shard)

    async def drive():
        job = sched.submit({"campaign": "smoke"})
        await sched._run_assignment(job["id"], 0)
        return sched.store.get(job["id"])

    return asyncio.run(drive())


def test_worker_crash_retries_then_succeeds(tmp_path, monkeypatch):
    sched = _scheduler(tmp_path, retries=2, backoff=0.001)
    monkeypatch.setattr(
        "repro.serve.queue.merge_shards",
        lambda results_dir, name: (results_dir / "x.jsonl", 0),
    )
    job = _run_assignment_with(
        sched, monkeypatch, [WorkerCrash("pool died"), _FakeResult()]
    )
    assert job["state"] == "done"
    assert job["attempts"] == 1
    assert sched.metrics.to_dict()["counters"]["serve_shard_retries"] == 1


def _run_real_job(sched, shards=1):
    """Drive a real smoke job through every shard, the scheduler's own
    merge and its trend append."""
    async def drive():
        job = sched.submit({"campaign": "smoke", "shards": shards})
        for index in range(shards):
            await sched._run_assignment(job["id"], index)
        return sched.store.get(job["id"])

    return asyncio.run(drive())


def test_trend_publish_failure_cannot_wedge_completion(tmp_path, monkeypatch):
    """Regression: a raising gauge update once left merged jobs 'running'
    forever — trend publishing is advisory and must never block _finish."""
    sched = _scheduler(tmp_path, retries=0)

    def broken_gauge(*args, **kwargs):
        raise TypeError("gauge exploded")

    monkeypatch.setattr(sched.metrics, "set_gauge", broken_gauge)
    job = _run_real_job(sched)
    assert job["state"] == "done"
    # The durable point landed; only its gauges were lost.
    results_dir = sched.store.results_dir(job["id"])
    assert len(load_points(trends_path(results_dir))) == 1
    counters = sched.metrics.to_dict()["counters"]
    assert "serve_trend_points" not in counters
    assert counters["serve_trend_errors"] == 1


def test_completed_job_publishes_trend_gauges(tmp_path):
    sched = _scheduler(tmp_path, retries=0)
    job = _run_real_job(sched)
    assert job["state"] == "done"
    results_dir = sched.store.results_dir(job["id"])
    manifest = ShardManifest.load(results_dir, "smoke")
    points = load_points(trends_path(results_dir))
    assert len(points) == 1
    assert points[0]["kind"] == "campaign" and points[0]["name"] == "smoke"
    assert points[0]["key"] == campaign_trend_key(manifest.spec_hashes)
    snap = sched.metrics.to_dict()
    gauges = snap["gauges"]
    assert any(k.startswith("trend_records") for k in gauges)
    assert snap["counters"].get("serve_trend_points") == 1


def test_report_trend_and_serve_merge_build_equal_points(tmp_path):
    sched = _scheduler(tmp_path / "serve", retries=0)
    job = _run_real_job(sched, shards=2)
    assert job["state"] == "done"
    results_dir = sched.store.results_dir(job["id"])
    ledger = tmp_path / "report-trends.jsonl"
    assert main(["report", str(results_dir / "smoke.jsonl"),
                 "--trends", str(ledger), "--json"]) == 0
    assert load_points(ledger) == load_points(trends_path(results_dir))


def test_worker_crash_exhausts_retries(tmp_path, monkeypatch):
    sched = _scheduler(tmp_path, retries=1, backoff=0.001)
    job = _run_assignment_with(
        sched, monkeypatch, [WorkerCrash("a"), WorkerCrash("b")]
    )
    assert job["state"] == "failed"
    assert "crashed 2 time(s)" in job["error"]


def test_plain_exception_fails_without_retry(tmp_path, monkeypatch):
    sched = _scheduler(tmp_path, retries=5)
    job = _run_assignment_with(sched, monkeypatch, [ValueError("boom")])
    assert job["state"] == "failed"
    assert "ValueError: boom" in job["error"]
    assert "serve_shard_retries" not in sched.metrics.to_dict()["counters"]


def test_timeout_is_a_hard_failure(tmp_path, monkeypatch):
    # A timed-out thread cannot be killed, so retrying would race two
    # writers on one shard stream — the policy is fail, never retry.
    sched = _scheduler(tmp_path, shard_timeout=0.05, retries=5)

    def hang(job, index):
        import time
        time.sleep(0.3)

    monkeypatch.setattr(sched, "_run_shard", hang)

    async def drive():
        job = sched.submit({"campaign": "smoke"})
        await sched._run_assignment(job["id"], 0)
        return sched.store.get(job["id"])

    job = asyncio.run(drive())
    assert job["state"] == "failed"
    assert "timeout" in job["error"]
    assert job["attempts"] == 0  # no retry happened


# --------------------------------------------------------------------- #
# wall-time accounting and the Retry-After hint
# --------------------------------------------------------------------- #


def test_cancel_queued_job_does_not_observe_wall_time(tmp_path):
    """Regression: a job cancelled while still queued never started, so it
    must not contribute a 0.0 sample to serve_job_wall_seconds — that
    dragged the histogram mean (and with it the Retry-After hint) toward
    zero on queues with many early cancellations."""
    sched = _scheduler(tmp_path)
    for _ in range(5):
        job = sched.submit({"campaign": "smoke"})
        done = sched.cancel(job["id"])
        assert done["state"] == "cancelled" and done["wall_seconds"] == 0.0
    snap = sched.metrics.to_dict()
    assert "serve_job_wall_seconds" not in snap["histograms"]
    assert snap["counters"]['serve_jobs_finished{state="cancelled"}'] == 5


def test_started_jobs_still_observe_wall_time(tmp_path):
    import time

    sched = _scheduler(tmp_path)
    job = sched.submit({"campaign": "smoke"})
    sched.store.update(job["id"], state="running",
                       _started_clock=time.monotonic() - 4.0)
    sched._finish(sched.store.get(job["id"]), "done")
    h = sched.metrics.to_dict()["histograms"]["serve_job_wall_seconds"]
    assert h["count"] == 1 and h["total"] >= 4.0


def test_retry_after_clamps_to_one_second_and_tracks_the_mean(tmp_path):
    sched = _scheduler(tmp_path)
    assert sched._retry_after() == 1.0  # no history yet: never 0
    sched.metrics.observe("serve_job_wall_seconds", 0.05)
    assert sched._retry_after() == 1.0  # fast jobs clamp up, never down
    sched.metrics.observe("serve_job_wall_seconds", 19.95)
    assert sched._retry_after() == 10.0  # (0.05 + 19.95) / 2


def test_retry_after_ignores_cancelled_while_queued(tmp_path):
    """The hint reflects only jobs that actually ran: queued-cancellations
    in between must not dilute it."""
    import time

    sched = _scheduler(tmp_path)
    job = sched.submit({"campaign": "smoke"})
    sched.store.update(job["id"], state="running",
                       _started_clock=time.monotonic() - 8.0)
    sched._finish(sched.store.get(job["id"]), "done")
    for _ in range(3):  # would have averaged in 0.0s walls before the fix
        sched.cancel(sched.submit({"campaign": "smoke"})["id"])
    assert sched._retry_after() >= 8.0


def _requeue_at_shutdown(sched):
    asyncio.run(sched.stop())


def _requeue_at_restart(sched):
    sched.store.recover()


@pytest.mark.parametrize("requeue", [_requeue_at_shutdown, _requeue_at_restart],
                         ids=["stop", "recover"])
def test_requeued_job_cancelled_while_queued_has_no_wall_time(tmp_path, requeue):
    """Both requeue paths drop the start clock: a monotonic stamp from
    before the requeue (another process, maybe another boot) must not
    become the wall time of a job cancelled before it ran again."""
    import time

    sched = _scheduler(tmp_path)
    sched.metrics.observe("serve_job_wall_seconds", 2.0)
    job = sched.submit({"campaign": "smoke"})
    sched.store.update(job["id"], state="running",
                       _started_clock=time.monotonic() - 4.0)
    requeue(sched)
    assert sched.store.get(job["id"])["state"] == "queued"
    done = sched.cancel(job["id"])
    assert done["state"] == "cancelled" and done["wall_seconds"] == 0.0
    h = sched.metrics.to_dict()["histograms"]["serve_job_wall_seconds"]
    assert h["count"] == 1 and h["total"] == 2.0


@pytest.mark.parametrize("requeue", [_requeue_at_shutdown, _requeue_at_restart],
                         ids=["stop", "recover"])
def test_both_requeue_paths_reset_every_progress_counter(tmp_path, requeue):
    """A requeued job re-derives its progress on resume, so nothing from
    the interrupted attempt may be counted twice."""
    sched = _scheduler(tmp_path)
    job = sched.submit({"campaign": "smoke", "shards": 2})
    sched.store.update(job["id"], state="running", shards_done=[True, False],
                       records=7, resumed=3, cache_hits=5)
    requeue(sched)
    view = sched.store.get(job["id"])
    assert view["state"] == "queued" and view["shards_done"] == [False, False]
    assert (view["records"], view["resumed"], view["cache_hits"]) == (0, 0, 0)
