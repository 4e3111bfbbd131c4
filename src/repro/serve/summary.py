"""Incremental ``/summary`` state: feed appended bytes, not whole files.

The naive summary re-read every durable record line on every poll, so a
tight polling client turned O(n) per request into O(n·polls).  This
module keeps one :class:`~repro.results.aggregate.Aggregator` per
``(job, group-by)`` pair and feeds it only the bytes each shard stream
*appended* since the last request — the aggregation core is
order-independent, so tailing shard streams as they land produces
exactly the batch answer over the merged file.

The cache trusts the engine's durability contract (whole lines, at
most one torn tail):

* ``stat()`` before ``open()`` — an unchanged stream costs zero file
  opens, which is the property the regression test counts;
* only newline-complete bytes are fed; a torn tail stays unconsumed
  until its newline lands;
* a stream that *shrank* (a resume cut a torn tail, a re-run cut its
  stream after the prefix it keeps) invalidates the entry and rebuilds
  from scratch — correctness over cleverness for the rare path;
* when the job completes, the entry rebuilds once from the canonical
  merged ``<name>.jsonl`` (identical records, so the answer is the same;
  the canonical file is the durable artifact that outlives the streams)
  and is thereafter served from memory while the file size holds still.

File opens go through the module-level :func:`_read_from` so the test
battery can count them.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.engine.shard import shard_stream_path
from repro.results.aggregate import Aggregator

__all__ = ["SummaryCache"]


def _read_from(path: pathlib.Path, offset: int) -> bytes:
    """Read ``path`` from ``offset`` to EOF (the one place files open)."""
    with path.open("rb") as fh:
        if offset:
            fh.seek(offset)
        return fh.read()


class _Entry:
    __slots__ = ("aggregator", "records", "offsets", "canonical_size")

    def __init__(self, by: tuple[str, ...]) -> None:
        self.aggregator = Aggregator(by=by)
        self.records = 0
        self.offsets: dict[int, int] = {}
        self.canonical_size = -1  # -1: still tailing shard streams

    def feed_lines(self, data: bytes) -> None:
        for line in data.split(b"\n"):
            if line.strip():
                self.aggregator.feed(json.loads(line))
                self.records += 1


class SummaryCache:
    """Maintained per-job aggregation state behind serve's ``/summary``.

    Entries are small (bounded group state, never record lists) and keyed
    by ``(job_id, by)``; a daemon summarizing thousands of jobs holds
    thousands of sketch sets, not thousands of record files.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, tuple[str, ...]], _Entry] = {}

    def summary(
        self,
        results_dir: pathlib.Path,
        job: dict[str, Any],
        by: tuple[str, ...],
    ) -> tuple[int, list[dict]]:
        """``(record_count, groups)`` for one job, updated incrementally.

        Raises whatever :class:`~repro.results.aggregate.Aggregator`
        raises on bad axes or zero records — the HTTP layer maps those to
        400 exactly as the batch path did.
        """
        key = (job["id"], tuple(by))
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry(tuple(by))

        canonical: pathlib.Path | None = None
        if job["state"] == "done" and job.get("jsonl"):
            path = pathlib.Path(job["jsonl"])
            if path.exists():
                canonical = path

        if canonical is not None:
            size = canonical.stat().st_size
            if size != entry.canonical_size:
                # First sight of the merged file (or it changed, e.g. a
                # re-merge): one full rebuild, then it serves from memory.
                entry = self._entries[key] = _Entry(tuple(by))
                entry.feed_lines(_read_from(canonical, 0))
                entry.canonical_size = size
            return entry.records, entry.aggregator.groups()

        if entry.canonical_size >= 0:
            # The job fell back from done (restarted/resumed): the
            # canonical snapshot no longer describes it — start over.
            entry = self._entries[key] = _Entry(tuple(by))

        for i in range(job["shards"]):
            stream = shard_stream_path(results_dir, job["name"], i, job["shards"])
            consumed = entry.offsets.get(i, 0)
            try:
                size = stream.stat().st_size
            except OSError:
                size = 0
            if size < consumed:
                # Shrunk stream: a resume truncated a torn tail out from
                # under us. Rebuild the whole entry rather than guess.
                entry = self._entries[key] = _Entry(tuple(by))
                for j in range(job["shards"]):
                    s = shard_stream_path(results_dir, job["name"], j,
                                          job["shards"])
                    if s.exists():
                        data = _read_from(s, 0)
                        complete = data[: data.rfind(b"\n") + 1]
                        entry.feed_lines(complete)
                        entry.offsets[j] = len(complete)
                break
            if size == consumed:
                continue  # nothing appended: zero opens for this stream
            data = _read_from(stream, consumed)
            complete = data[: data.rfind(b"\n") + 1]  # leave any torn tail
            if complete:
                entry.feed_lines(complete)
                entry.offsets[i] = consumed + len(complete)
        return entry.records, entry.aggregator.groups()
