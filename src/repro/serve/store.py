"""The durable job store: one atomically-written state file per job.

Layout under the store root::

    <root>/jobs/<id>/job.json      # the job state (atomic tmp+fsync+replace)
    <root>/jobs/<id>/results/      # the job's own campaign results_dir

``job.json`` is written through :func:`repro.engine.shard.atomic_write_json`
— the same tmp + fsync + ``os.replace`` discipline as every other durable
artifact in this library — so a crash at any instant leaves either the old
state or the new one, never a torn file.  The per-job ``results/`` directory
holds the ordinary PR 5 shard artifacts (streams, manifest, done markers),
which is what makes restart recovery cheap: the store only records *intent*
(which campaign, how many shards, what state); the shard manifests record
*progress*, and :meth:`JobStore.recover` simply demotes interrupted
``running`` jobs back to ``queued`` so the scheduler re-runs them with
``resume`` — every durable record replays, nothing recomputes.

States move ``queued → running → done | failed | cancelled``.  The three
right-hand states are terminal; ``cancelled`` can also be reached straight
from ``queued``.

Single-writer discipline: all store mutations happen on the daemon's event
loop thread (campaign execution runs in worker threads, but state
transitions are posted back to the loop), so the in-memory index needs no
locking and the on-disk files have exactly one writer.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any

from repro.errors import JobNotFound, ServeError
from repro.engine.shard import atomic_write_json
from repro.serve.client import JOB_STATES, PRIORITIES, TERMINAL_STATES

__all__ = ["JobStore"]

_JOB_VERSION = 1


class JobStore:
    """Durable job index over ``<root>/jobs/<id>/job.json`` files.

    The store keeps an in-memory mirror of every state file (loaded by
    :meth:`recover`, updated on every mutation) so reads never touch the
    disk; writes go through the atomic-replace path before the mirror
    updates, so the disk is always at least as old as memory — a crash
    can lose an in-flight transition but never invent one.
    """

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self._jobs: dict[str, dict[str, Any]] = {}
        self._seq = 0

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #

    def job_dir(self, job_id: str) -> pathlib.Path:
        return self.root / "jobs" / job_id

    def results_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "results"

    def _state_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "job.json"

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def recover(self) -> list[dict[str, Any]]:
        """Scan the store root, rebuild the index, demote interrupted jobs.

        Jobs found ``running`` were interrupted mid-flight (the daemon
        died); they go back to ``queued`` — with their shard streams and
        manifest intact, so the scheduler's resume path replays every
        durable record instead of recomputing it — and their per-attempt
        progress counters reset (:meth:`requeue`).
        Returns the jobs now awaiting execution (state ``queued``), in
        submission order.  Unreadable state files are skipped with the
        job dir left in place for post-mortem, never deleted.
        """
        self._jobs.clear()
        self._seq = 0
        jobs_root = self.root / "jobs"
        if jobs_root.is_dir():
            for state_path in sorted(jobs_root.glob("*/job.json")):
                try:
                    job = json.loads(state_path.read_text())
                except (OSError, ValueError):  # unreadable, bad JSON, not UTF-8
                    continue
                if not isinstance(job, dict) or "id" not in job:
                    continue
                if job.get("state") == "running":
                    self.requeue(job, note="requeued after daemon restart")
                self._jobs[job["id"]] = job
                self._seq = max(self._seq, int(job.get("seq", 0)))
        return [j for j in self.list() if j["state"] == "queued"]

    def create(
        self,
        *,
        campaign: dict[str, Any],
        name: str,
        shards: int = 1,
        priority: str = "normal",
        executor: str = "process",
        jobs: int | None = None,
        use_cache: bool = True,
    ) -> dict[str, Any]:
        """Persist a new ``queued`` job and return its state dict.

        ``campaign`` is the submission payload — ``{"builtin": name}`` or
        ``{"spec": {...}}`` — stored verbatim so a restarted daemon can
        rebuild the exact same :class:`~repro.engine.campaign.Campaign`.
        """
        if priority not in PRIORITIES:
            raise ServeError(
                f"unknown priority {priority!r}; known: {', '.join(PRIORITIES)}"
            )
        if shards < 1:
            raise ServeError(f"shards must be >= 1, got {shards}")
        self._seq += 1
        job = {
            "job_version": _JOB_VERSION,
            "id": f"j{self._seq:06d}",
            "seq": self._seq,
            "state": "queued",
            "priority": priority,
            "campaign": campaign,
            "name": name,
            "shards": shards,
            "executor": executor,
            "jobs": jobs,
            "use_cache": use_cache,
            "submitted_at": time.time(),
            "started_at": None,
            "finished_at": None,
            "wall_seconds": None,
            "shards_done": [False] * shards,
            "attempts": 0,
            "records": 0,
            "resumed": 0,
            "cache_hits": 0,
            "error": None,
            "jsonl": None,
            "cancel_requested": False,
        }
        self.results_dir(job["id"]).mkdir(parents=True, exist_ok=True)
        self._write(job)
        return job

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def get(self, job_id: str) -> dict[str, Any]:
        """The live state dict (the store's own copy — do not mutate)."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise JobNotFound(
                f"no job {job_id!r} in the store at {self.root}",
                job_id=job_id,
            ) from None

    def list(self) -> list[dict[str, Any]]:
        """Every job, in submission order."""
        return sorted(self._jobs.values(), key=lambda j: j["seq"])

    def counts(self) -> dict[str, int]:
        """Jobs per state — every state present, zero or not, so the
        jobs-by-state gauges never drop a series between scrapes."""
        out = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            out[job["state"]] += 1
        return out

    def active(self) -> int:
        """Jobs still consuming capacity (queued or running)."""
        return sum(
            1 for j in self._jobs.values() if j["state"] not in TERMINAL_STATES
        )

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #

    def update(self, job_id: str, **fields: Any) -> dict[str, Any]:
        """Merge ``fields`` into the job state, atomically persisted."""
        job = self.get(job_id)
        job.update(fields)
        self._write(job)
        return job

    def requeue(self, job: dict[str, Any], *, note: str) -> dict[str, Any]:
        """Put an interrupted ``running`` job back to ``queued``.

        Both requeue paths (shutdown and restart recovery) come through
        here.  The per-attempt progress counters reset, since the resumed
        run re-derives them from the shard streams, and so does the start
        stamp: a monotonic clock from another process means nothing.
        """
        job.update(
            state="queued", note=note,
            shards_done=[False] * int(job.get("shards", 1)),
            records=0, resumed=0, cache_hits=0, _started_clock=None,
        )
        self._write(job)
        return job

    def mark_shard_done(
        self, job_id: str, index: int, *, records: int, resumed: int,
        cache_hits: int = 0,
    ) -> dict[str, Any]:
        """Record one finished shard; returns the updated job."""
        job = self.get(job_id)
        job["shards_done"][index] = True
        job["records"] += records
        job["resumed"] += resumed
        job["cache_hits"] += cache_hits
        self._write(job)
        return job

    def _write(self, job: dict[str, Any]) -> None:
        path = self._state_path(job["id"])
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, job)
        self._jobs[job["id"]] = job
