"""The async scheduler: admission control, priorities, a shard-pulling pool.

One :class:`Scheduler` owns the service's work queue.  The unit of work is
a **shard assignment** ``(job, shard_index)``: a job submitted with
``shards=k`` fans out into k assignments, each of which executes
``Campaign.run(executor, shards=k, shard_index=i)`` inside
``asyncio.to_thread`` — the engine's ordinary PR 5 sharded path, streams
and manifest and done markers included — so the durability story is the
engine's own, not a service re-implementation.  When a job's last shard
lands, the scheduler merges the shard streams into the canonical
``<name>.jsonl``, appends the campaign's point to the job's trend ledger,
and the job is ``done``.

Design decisions a reader should not have to reverse-engineer:

* **Admission control bounds jobs, not assignments.**  ``submit`` refuses
  (:class:`~repro.errors.QueueFull` → HTTP 429 + Retry-After) once
  ``queued + running`` jobs reach ``queue_limit``; the Retry-After hint
  is the mean observed job wall time, because that is when capacity is
  expected to free up.
* **Crashes retry, timeouts do not.**  A
  :class:`~repro.errors.WorkerCrash` (the executor pool died under the
  run) means the worker thread has *ended*, so a retry with backoff is
  safe — the shard stream's durable prefix replays via ``resume``.  A
  shard that exceeds ``shard_timeout`` is different: Python cannot kill
  the timed-out thread, so retrying would race two writers on one
  stream.  The job fails with the timeout named; the operator resubmits
  (or restarts the daemon, whose recovery resumes the durable prefix).
* **Shutdown cancels pending work, joins in-flight work.**  ``stop()``
  closes every active executor with ``cancel_pending=True`` — queued
  futures are dropped, in-flight ones joined, process-pool children
  reaped — then requeues interrupted jobs as ``queued`` so the next
  daemon resumes them.  No orphans, no recomputation.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from typing import Any

from repro.errors import ProtocolError, ReproError, ServeError, QueueFull, WorkerCrash
from repro.engine.campaign import Campaign, builtin_campaign
from repro.engine.executor import make_executor
from repro.engine.shard import manifest_path, merge_shards
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import PRIORITIES, TERMINAL_STATES
from repro.serve.store import JobStore

__all__ = ["Scheduler"]


def _append_campaign_point(results_dir, name: str, path) -> dict:
    """Append the merged ``path``'s campaign point to the job's ledger."""
    from repro.results import iter_records, spec_content_hash
    from repro.results.aggregate import RunningStats
    from repro.results.trends import append_point, campaign_point, trends_path

    bits = RunningStats()
    spec_hashes = []
    for record in iter_records(path):
        spec_hashes.append(spec_content_hash(record["spec"]))
        bits.feed(record["result"]["max_message_bits"])
    point = campaign_point(name=name, spec_hashes=spec_hashes, bits=bits)
    append_point(trends_path(results_dir), point)
    return point


def build_campaign(job: dict[str, Any], results_dir) -> Campaign:
    """The job's :class:`Campaign`, rebuilt from the stored payload.

    Cheap enough to call per shard attempt — scenario expansion happens
    inside ``Campaign.run``, not here — which keeps the job state file
    the only thing the daemon has to remember across restarts.
    """
    payload = job["campaign"]
    if "builtin" in payload:
        return builtin_campaign(
            payload["builtin"], results_dir=results_dir,
            use_cache=job["use_cache"],
        )
    return Campaign.from_dict(
        payload["spec"], results_dir=results_dir, use_cache=job["use_cache"],
    )


def validate_submission(payload: dict[str, Any]) -> tuple[dict[str, Any], str]:
    """Check a submission body; return ``(campaign_payload, name)``.

    Raises :class:`ServeError` (HTTP 400) on anything malformed —
    including an unknown builtin name, where the registry's did-you-mean
    message is passed through verbatim.
    """
    if not isinstance(payload, dict):
        raise ServeError("submission body must be a JSON object")
    has_builtin = "campaign" in payload
    has_spec = "spec" in payload
    if has_builtin == has_spec:
        raise ServeError(
            "submission needs exactly one of 'campaign' (a builtin name) "
            "or 'spec' (an inline campaign spec object)"
        )
    if has_builtin:
        from repro import registry

        name = payload["campaign"]
        if not isinstance(name, str):
            raise ServeError("'campaign' must be a builtin campaign name")
        try:
            canonical = registry.CAMPAIGN.resolve(name)
        except ReproError as exc:  # the did-you-mean passes through as a 400
            raise ServeError(str(exc)) from exc
        return {"builtin": canonical}, canonical
    spec = payload["spec"]
    if not isinstance(spec, dict):
        raise ServeError("'spec' must be a campaign spec object")
    try:
        campaign = Campaign.from_dict(spec, results_dir=None)
    except (ReproError, ValueError, TypeError) as exc:
        raise ServeError(f"invalid campaign spec: {exc}") from exc
    return {"spec": spec}, campaign.name


class Scheduler:
    """Priority queue + worker pool over a :class:`JobStore`.

    All public methods run on the event loop thread; only
    :meth:`_run_shard` (and executor teardown) runs elsewhere.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        workers: int = 2,
        queue_limit: int = 16,
        executor: str = "process",
        jobs: int | None = None,
        shard_timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.05,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 0:
            raise ServeError(f"workers must be >= 0, got {workers}")
        if queue_limit < 1:
            raise ServeError(f"queue_limit must be >= 1, got {queue_limit}")
        make_executor(executor, jobs).close()  # fail fast on a bad kind
        self.store = store
        self.workers = workers
        self.queue_limit = queue_limit
        self.executor_kind = executor
        self.jobs = jobs
        self.shard_timeout = shard_timeout
        self.retries = retries
        self.backoff = backoff
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = itertools.count()
        self._tasks: list[asyncio.Task] = []
        self._active_executors: dict[object, Any] = {}
        self._active_lock = threading.Lock()
        self._stopping = False

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def submit(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Validate, admit, persist, and enqueue one submission."""
        if self._stopping:
            raise ServeError("the service is shutting down")
        campaign_payload, name = validate_submission(payload)
        priority = payload.get("priority", "normal")
        if priority not in PRIORITIES:
            raise ServeError(
                f"unknown priority {priority!r}; known: {', '.join(PRIORITIES)}"
            )
        shards = payload.get("shards", 1)
        if not isinstance(shards, int) or shards < 1:
            raise ServeError(f"shards must be an integer >= 1, got {shards!r}")
        executor = payload.get("executor", self.executor_kind)
        jobs = payload.get("jobs", self.jobs)
        if jobs is not None and not isinstance(jobs, int):
            raise ServeError(f"jobs must be an integer >= 1, got {jobs!r}")
        try:
            make_executor(executor, jobs).close()
        except ProtocolError as exc:
            raise ServeError(str(exc)) from exc
        if self.store.active() >= self.queue_limit:
            self.metrics.inc("serve_admission_rejects")
            raise QueueFull(
                f"the service is at capacity ({self.queue_limit} active "
                "job(s)); retry later",
                retry_after=self._retry_after(),
            )
        job = self.store.create(
            campaign=campaign_payload,
            name=name,
            shards=shards,
            priority=priority,
            executor=executor,
            jobs=jobs,
            use_cache=bool(payload.get("use_cache", True)),
        )
        self.metrics.inc("serve_jobs_submitted")
        self._enqueue(job)
        return job

    def _retry_after(self) -> float:
        h = self.metrics.to_dict()["histograms"].get("serve_job_wall_seconds")
        if h and h["count"]:
            return max(1.0, round(h["total"] / h["count"], 1))
        return 1.0

    def _enqueue(self, job: dict[str, Any]) -> None:
        prio = PRIORITIES[job["priority"]]
        for index in range(job["shards"]):
            # The unique sequence number breaks ties, so the tuple never
            # compares beyond it and FIFO holds within a priority class.
            self._queue.put_nowait((prio, next(self._seq), job["id"], index))

    def queue_depth(self) -> int:
        """Shard assignments waiting for a worker."""
        return self._queue.qsize()

    # ------------------------------------------------------------------ #
    # cancellation
    # ------------------------------------------------------------------ #

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a job; cooperative at shard granularity.

        A ``queued`` job is cancelled immediately.  A ``running`` job has
        its flag set: the shard currently executing runs to completion
        (its records stay durable), pending shards are skipped, and the
        job lands in ``cancelled``.  Terminal jobs raise
        :class:`ServeError` (HTTP 409) — there is nothing left to cancel.
        """
        job = self.store.get(job_id)
        if job["state"] in TERMINAL_STATES:
            raise ServeError(
                f"job {job_id} is already {job['state']}; nothing to cancel"
            )
        if job["state"] == "queued":
            return self._finish(job, "cancelled")
        return self.store.update(job_id, cancel_requested=True)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Recover the store and launch the worker tasks."""
        for job in self.store.recover():
            self._enqueue(job)
        for i in range(self.workers):
            self._tasks.append(
                asyncio.get_running_loop().create_task(
                    self._worker(), name=f"serve-worker-{i}"
                )
            )

    async def stop(self) -> None:
        """Graceful teardown: cancel workers, reap executors, requeue."""
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        # Joining pool children can take as long as the slowest in-flight
        # run; do it off the loop so stop() stays responsive to signals.
        await asyncio.to_thread(self._close_active_executors)
        for job in self.store.list():
            if job["state"] == "running":
                self.store.requeue(job, note="requeued at daemon shutdown")

    def _close_active_executors(self) -> None:
        with self._active_lock:
            executors = list(self._active_executors.values())
        for ex in executors:
            ex.close(cancel_pending=True)

    # ------------------------------------------------------------------ #
    # workers
    # ------------------------------------------------------------------ #

    async def _worker(self) -> None:
        while True:
            _prio, _seq, job_id, index = await self._queue.get()
            try:
                await self._run_assignment(job_id, index)
            finally:
                self._queue.task_done()

    async def _run_assignment(self, job_id: str, index: int) -> None:
        job = self.store.get(job_id)
        if job["state"] in TERMINAL_STATES:
            return  # cancelled (or failed by a sibling shard) while queued
        if job["state"] == "queued":
            if job["cancel_requested"]:
                self._finish(job, "cancelled")
                return
            job = self.store.update(
                job_id, state="running", started_at=time.time(),
                _started_clock=time.monotonic(),
            )

        attempt = 0
        while True:
            try:
                result = await self._execute_shard(job, index)
                break
            except asyncio.TimeoutError:
                # The timed-out thread cannot be killed; a retry would
                # race two writers on the same shard stream, so this is a
                # hard failure (the durable prefix survives for a resume).
                self._finish(
                    job, "failed",
                    error=f"shard {index} exceeded the per-shard timeout "
                          f"of {self.shard_timeout}s",
                )
                return
            except WorkerCrash as exc:
                attempt += 1
                self.metrics.inc("serve_shard_retries")
                self.store.update(job_id, attempts=job["attempts"] + 1)
                if attempt > self.retries:
                    self._finish(
                        job, "failed",
                        error=f"shard {index} crashed {attempt} time(s); "
                              f"giving up: {exc}",
                    )
                    return
                await asyncio.sleep(self.backoff * 2 ** (attempt - 1))
            except asyncio.CancelledError:
                raise  # daemon shutdown: stop() requeues the job
            except Exception as exc:
                self._finish(
                    job, "failed",
                    error=f"shard {index}: {type(exc).__name__}: {exc}",
                )
                return

        if result.metrics is not None:
            self.metrics.merge(result.metrics)
        job = self.store.mark_shard_done(
            job_id, index,
            records=len(result.records) - result.resumed,
            resumed=result.resumed,
            cache_hits=result.cache_hits,
        )
        if all(job["shards_done"]):
            await self._complete(job)

    async def _execute_shard(self, job: dict[str, Any], index: int):
        coro = asyncio.to_thread(self._run_shard, job, index)
        if self.shard_timeout is not None:
            return await asyncio.wait_for(coro, self.shard_timeout)
        return await coro

    def _run_shard(self, job: dict[str, Any], index: int):
        """One shard, in a worker thread: fresh executor, always closed."""
        results_dir = self.store.results_dir(job["id"])
        campaign = build_campaign(job, results_dir)
        # Resume iff an earlier attempt (this daemon's or a dead one's)
        # already wrote the manifest — then the durable prefix replays and
        # only missing specs execute.
        resume = manifest_path(results_dir, campaign.name).exists()
        executor = make_executor(job["executor"], job["jobs"])
        key = object()
        with self._active_lock:
            self._active_executors[key] = executor
        try:
            return campaign.run(
                executor, shards=job["shards"], shard_index=index,
                resume=resume, progress=False,
            )
        finally:
            with self._active_lock:
                self._active_executors.pop(key, None)
            executor.close(cancel_pending=self._stopping)

    async def _complete(self, job: dict[str, Any]) -> None:
        """Last shard landed: merge, then ``done`` (or late ``cancelled``)."""
        if job["cancel_requested"]:
            self._finish(job, "cancelled")
            return
        results_dir = self.store.results_dir(job["id"])
        try:
            path, count = await asyncio.to_thread(
                merge_shards, results_dir, job["name"]
            )
        except ReproError as exc:
            self._finish(job, "failed", error=f"merge failed: {exc}")
            return
        await self._record_trend(results_dir, job["name"], path)
        self._finish(job, "done", records=count, jsonl=str(path))

    async def _record_trend(self, results_dir, name: str, path) -> None:
        """Append the merged campaign's trend point and publish it.

        ``trends.jsonl`` gains one campaign point per merged job, and
        ``/metrics`` carries it as one gauge per (campaign, metric) — the
        live view of the numbers the ledger accumulates durably.
        Advisory: the canonical records are already durable, so a ledger
        that cannot be written costs the job its gauges (and counts a
        ``serve_trend_errors``), never its state.
        """
        # Advisory means advisory: NOTHING here may stand between a merged
        # job and its terminal state (a wedged gauge update once left jobs
        # "running" forever — the regression test pins this).
        try:
            point = await asyncio.to_thread(
                _append_campaign_point, results_dir, name, path
            )
            for metric, value in point["metrics"].items():
                self.metrics.set_gauge(
                    f"trend_{metric}", value,
                    kind=point["kind"], series=point["name"],
                )
            self.metrics.inc("serve_trend_points")
        except Exception:
            self.metrics.inc("serve_trend_errors")

    def _finish(self, job: dict[str, Any], state: str, **fields: Any) -> dict[str, Any]:
        started = job.get("_started_clock")
        wall = (time.monotonic() - started) if started else 0.0
        self.metrics.inc("serve_jobs_finished", state=state)
        if started is not None:
            # Jobs that never started (cancelled while queued, dropped at
            # admission replay) have no wall time; observing their 0.0
            # would drag the serve_job_wall_seconds mean — and with it the
            # Retry-After hint — toward zero.
            self.metrics.observe("serve_job_wall_seconds", round(wall, 6))
        return self.store.update(
            job["id"], state=state, finished_at=time.time(),
            wall_seconds=round(wall, 3), _started_clock=None, **fields,
        )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def metrics_snapshot(self) -> dict[str, Any]:
        """The serve registry with point-in-time gauges recomputed."""
        for state, count in self.store.counts().items():
            self.metrics.set_gauge("serve_jobs", count, state=state)
        self.metrics.set_gauge("serve_queue_depth", self.queue_depth())
        self.metrics.set_gauge("serve_workers", self.workers)
        # Gauge merges are last-write-wins, so after folding shard
        # registries the cache_hit_ratio gauge would be whichever shard
        # landed last — not the fleet ratio.  Recompute it from the
        # additive counters; this is the same pinned definition the
        # campaign layer publishes (see tests/engine/test_cache_hit_ratio.py):
        # runs_cached / (runs_cached + runs_started).
        hits = self.metrics.counter("runs_cached")
        landed = hits + self.metrics.counter("runs_started")
        self.metrics.set_gauge("cache_hit_ratio", (hits / landed) if landed else 0.0)
        return self.metrics.to_dict()
