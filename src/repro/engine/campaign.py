"""Campaigns: expand scenario grids, fan out runs, persist and replay results.

A :class:`Campaign` is a named list of :class:`~repro.engine.scenario.Scenario`
blocks.  :meth:`Campaign.run`:

1. expands every scenario into :class:`~repro.engine.scenario.RunSpec`
   values and deduplicates them by content hash (grids often overlap —
   identical work is done once);
2. replays cache hits from the record streams already in ``results_dir``
   (:func:`~repro.engine.shard.durable_records`: the streams *are* the
   cache).  Hits match by content hash, which covers the spec and
   :data:`~repro.engine.scenario.SPEC_VERSION`; streams whose manifest
   names another ``SPEC_VERSION`` are never read.  Old ``cache/``
   directories from earlier versions are ignored, not read or deleted;
3. fans the misses out through any :class:`~repro.engine.executor.Executor`;
4. streams every record, in deterministic spec order, to
   ``<results_dir>/<name>.jsonl`` — one JSON object per line with
   ``spec`` / ``result`` / ``timing`` sections, ``sort_keys`` so the bytes
   are stable (the determinism test strips only ``timing`` and ``cached``).
   Every line is flushed whole and the stream is fsynced once per 64
   fresh records (replayed lines, i.e. cache hits, do not count) and at
   close, so a crash tears at most the final line and a power loss
   loses at most that unsynced window, which resume re-executes.  Every
   persisted run also writes the checkpoint manifest from
   :mod:`repro.engine.shard`, making it resumable (``run(resume=True)``)
   and shardable (``run(shards=n, shard_index=i)`` plus
   ``python -m repro merge``).

Campaign specs are plain JSON (see :func:`load_campaign`)::

    {"name": "my-sweep",
     "scenarios": [
       {"name": "deg-k2", "family": "random_k_degenerate", "sizes": [64, 128],
        "protocol": "degeneracy", "seeds": [0, 1, 2],
        "family_params": {"k": 2}, "protocol_params": {"k": 2}}]}

Builtin campaigns (kind ``campaign`` in :mod:`repro.registry`) cover the smoke test, the
reconstruction and connectivity sweeps, the fault-robustness study, and the
fixed ``bench`` load that the process-pool speedup test times.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import pathlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro import registry
from repro.errors import ObsError, ProtocolError, ShardError, WorkerCrash
from repro.model.referee import monotonic_clock
from repro.obs.events import events_path as _events_path
from repro.obs.events import load_partial_events as _load_partial_events
from repro.obs.events import metrics_path as _metrics_path
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.engine.executor import Executor, SerialExecutor
from repro.engine.faults import FaultSpec
from repro.engine.scenario import RunRecord, RunSpec, Scenario, execute_run
from repro.engine.shard import (
    JsonlStreamWriter,
    ShardManifest,
    atomic_write_json,
    atomic_write_jsonl,
    durable_records,
    load_partial_records,
    merge_shards,
    shard_done_path,
    shard_specs,
    shard_stream_path,
    write_done_marker,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "builtin_campaign",
    "load_campaign",
]


@dataclass
class CampaignResult:
    """What one :meth:`Campaign.run` produced."""

    name: str
    records: list[RunRecord]
    jsonl_path: pathlib.Path | None
    cache_hits: int
    cache_misses: int
    executor_kind: str
    wall_seconds: float
    #: Shard geometry when the run was sharded (``None`` = unsharded).
    shards: int | None = None
    #: The one shard this result covers (``None`` = all of them).
    shard_index: int | None = None
    #: Records replayed from a durable partial stream on ``resume=True``.
    resumed: int = 0
    #: :class:`~repro.obs.metrics.MetricsRegistry` snapshot for the run.
    metrics: dict[str, Any] | None = None
    #: Where the trace event stream landed (``None`` unless ``trace=True``).
    events_path: pathlib.Path | None = None
    #: Where the metrics snapshot landed (``None`` when not persisted).
    metrics_path: pathlib.Path | None = None

    @property
    def ok(self) -> int:
        """Number of runs that completed without violation or error."""
        return sum(1 for r in self.records if r.status == "ok")

    def summary(self) -> dict[str, Any]:
        """Aggregate view for the CLI."""
        statuses: dict[str, int] = {}
        for r in self.records:
            statuses[r.status] = statuses.get(r.status, 0) + 1
        exact = [r.exact for r in self.records if r.exact is not None]
        out = {
            "campaign": self.name,
            "runs": len(self.records),
            "statuses": statuses,
            "exact": sum(exact),
            "inexact": len(exact) - sum(exact),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "executor": self.executor_kind,
            "wall_seconds": round(self.wall_seconds, 3),
            "jsonl": str(self.jsonl_path) if self.jsonl_path else None,
        }
        if self.shards is not None:
            out["shards"] = self.shards
            out["shard_index"] = self.shard_index
        if self.resumed:
            out["resumed"] = self.resumed
        if self.events_path is not None:
            out["events"] = str(self.events_path)
        if self.metrics_path is not None:
            out["metrics"] = str(self.metrics_path)
        return out


class Campaign:
    """A named grid of scenarios plus the run/replay/persist machinery.

    Parameters
    ----------
    scenarios:
        The scenario blocks; expanded in order.
    name:
        Campaign name; also the stem of every file the run writes, so it
        must be a plain file name (no path separators, not ``.``/``..``).
    results_dir:
        Where the JSONL record streams live; created on demand.  ``None``
        disables persistence entirely (records are only returned).
    use_cache:
        When set (and ``results_dir`` is given), every spec whose record
        is already durable in a record stream under ``results_dir`` (any
        campaign's, this one's included) is replayed instead of run.
    """

    def __init__(
        self,
        scenarios: Iterable[Scenario],
        *,
        name: str = "campaign",
        results_dir: str | pathlib.Path | None = "results",
        use_cache: bool = True,
    ) -> None:
        self.scenarios = list(scenarios)
        if not self.scenarios:
            raise ProtocolError("a campaign needs at least one scenario")
        if name in ("", ".", "..") or any(sep in name for sep in ("/", "\\", os.sep)):
            raise ProtocolError(
                f"campaign name {name!r} must be a plain file name: non-empty, "
                "not '.' or '..', and without path separators"
            )
        self.name = name
        self.results_dir = pathlib.Path(results_dir) if results_dir is not None else None
        self.use_cache = use_cache and self.results_dir is not None

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #

    def specs(self) -> list[RunSpec]:
        """The full grid, deduplicated by content hash, in stable order."""
        seen: set[str] = set()
        out: list[RunSpec] = []
        for scenario in self.scenarios:
            for spec in scenario.expand():
                h = spec.content_hash()
                if h not in seen:
                    seen.add(h)
                    out.append(spec)
        return out

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #

    def _observe_record(
        self,
        record: RunRecord,
        tracer: "Tracer | NullTracer",
        metrics: MetricsRegistry,
        t0: float,
        landed: float,
        worker: str | None,
        busy: float | None,
    ) -> None:
        """Account one landed record: metrics always, retro spans when traced.

        The run span's duration is the record's ``wall_seconds`` — the
        worker-measured truth, copied bit-for-bit — for executed records,
        and the in-process landed time for cache hits.  Phase children
        (setup/local/referee/global) anchor consecutively at the run's
        ``t0`` with the record's exact ``*_seconds`` durations, so a
        trace's per-phase totals reconcile with the records exactly;
        cache hits did no phase work *in this campaign*, so they get none.
        """
        spec = record.spec
        if record.cached:
            metrics.inc("runs_cached")
        else:
            metrics.inc("runs_started")
            metrics.inc("runs_completed", status=record.status)
            metrics.observe("run_seconds", record.timing.get("wall_seconds", landed))
            if worker is not None:
                metrics.inc("worker_tasks", worker=worker)
                metrics.inc("worker_busy_seconds", busy or 0.0, worker=worker)
        for fault_kind, count in (
            ("dropped", record.faults.dropped),
            ("duplicated", record.faults.duplicated),
            ("flipped", record.faults.flipped),
        ):
            if count:
                metrics.inc("faults_injected", count, kind=fault_kind)
        metrics.inc("bits_total", record.total_message_bits)

        if not tracer.enabled:
            return
        dur = landed if record.cached else float(
            record.timing.get("wall_seconds", landed)
        )
        run_id = tracer.emit_span(
            "run", t0, dur,
            spec=spec.content_hash(), scenario=spec.scenario,
            protocol=spec.protocol, n=spec.n, seed=spec.seed,
            status=record.status, cached=record.cached,
            worker=worker, busy_seconds=busy, landed_seconds=landed,
        )
        if record.cached:
            return
        offset = t0
        for key, phase in (
            ("setup_seconds", "setup"),
            ("local_seconds", "local"),
            ("referee_seconds", "referee"),
            ("global_seconds", "global"),
        ):
            if key not in record.timing:
                continue
            phase_dur = record.timing[key]
            if phase == "setup":
                tracer.emit_span(phase, offset, phase_dur, parent=run_id)
            else:
                tracer.emit_span(phase, offset, phase_dur, parent=run_id,
                                 protocol=spec.protocol, n=spec.n)
            offset += phase_dur

    def _run_stream(
        self,
        specs: list[RunSpec],
        executor: Executor,
        stream_path: pathlib.Path | None,
        *,
        cache: Mapping[str, RunRecord],
        resume: bool = False,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        metrics: MetricsRegistry | None = None,
        shard_index: int | None = None,
    ) -> tuple[list[RunRecord], int, int, int]:
        """Execute ``specs`` in order, streaming each record as it lands.

        Records are streamed to ``stream_path`` through
        :class:`~repro.engine.shard.JsonlStreamWriter`: every line is
        flushed whole, fresh records are fsynced in groups of 64, and the
        writer's close (which precedes the done marker) fsyncs any
        unsynced tail, so a crash tears at most the final line.
        Pending specs found in ``cache`` (a
        :func:`~repro.engine.shard.durable_records` index) are replayed
        instead of executed.  With ``resume``,
        every durable record of an interrupted stream whose spec is still
        in the grid is replayed instead of re-executed — matched by
        content hash, so completed work survives scenario reordering and
        grid edits, not just a clean kill.  A torn tail is truncated and
        its spec re-run.  New records always *append* (durability is never
        traded away mid-run); if replay found the stream out of grid order
        or holding stale specs, the finished stream is rewritten
        canonically in one atomic replace at the end.

        Returns ``(records, cache_hits, cache_misses, resumed)``.
        """
        metrics = metrics if metrics is not None else MetricsRegistry()
        order = [s.content_hash() for s in specs]
        durable: dict[str, RunRecord] = {}
        canonical = True  # does the on-disk stream equal canonical order?
        if resume and stream_path is not None:
            loaded, _torn, good_bytes = load_partial_records(stream_path)
            current = set(order)
            kept: list[str] = []
            for record in loaded:
                h = record.spec.content_hash()
                if h in current:  # stale specs (grid edits) are dropped
                    durable[h] = record
                    kept.append(h)
            canonical = (
                len(kept) == len(loaded) and kept == order[: len(kept)]
            )
            # Drop any torn tail so appended records start on a clean line.
            if stream_path.exists() and stream_path.stat().st_size > good_bytes:
                with stream_path.open("rb+") as fh:
                    fh.truncate(good_bytes)
            # Replayed records keep their original payload; restamp the
            # requesting spec so provenance matches this campaign (the
            # content hash is identical either way).
            by_hash = {h: s for h, s in zip(order, specs)}
            for h, record in durable.items():
                record.spec = by_hash[h]

        if durable:
            # Replayed records emit NO events (their events survived the
            # crash in the stream) — the mark is how progress consumers
            # learn the grid jumped ahead without re-running anything.
            tracer.mark("resume-replay", replayed=len(durable))
            metrics.inc("runs_resumed", len(durable))

        pending = [s for s, h in zip(specs, order) if h not in durable]
        slots: list[RunRecord | None] = []
        for spec in pending:
            hit = cache.get(spec.content_hash())
            if hit is not None:
                # The hash covers only the physical run; restamp the
                # requesting spec so the emitted record carries this
                # campaign's provenance.
                hit.spec = spec
                hit.cached = True
            slots.append(hit)
        misses = [s for s, r in zip(pending, slots) if r is None]
        miss_iter = executor.imap_observed(execute_run, misses)

        writer = None
        if stream_path is not None:
            writer = JsonlStreamWriter(stream_path, append=resume)
        try:
            for spec, record in zip(pending, slots):
                t_land = monotonic_clock()
                worker = busy = None
                fresh = record is None
                if fresh:
                    try:
                        record, worker, busy = next(miss_iter)
                    except Exception as exc:
                        h = spec.content_hash()
                        where = (
                            f"spec {h} ({spec.scenario}/{spec.protocol} "
                            f"n={spec.n} seed={spec.seed}"
                            + (f", shard {shard_index}" if shard_index is not None
                               else "") + ")"
                        )
                        tracer.mark(
                            "worker-crash", spec=h, shard=shard_index,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                        metrics.inc("worker_crashes")
                        if isinstance(exc, concurrent.futures.BrokenExecutor):
                            # The pool itself died (a worker was killed,
                            # ran out of memory, ...): the task's own code
                            # never got to raise, so wrap with the context
                            # the stack trace cannot carry.
                            raise WorkerCrash(
                                f"executor pool broke running {where}: "
                                f"{type(exc).__name__}: {exc}",
                                spec_hash=h,
                                shard_index=shard_index,
                            ) from exc
                        # A task exception is part of the engine's contract
                        # (it escapes unchanged — resume relies on the
                        # type); annotate it with run context instead.
                        exc.add_note(f"while running {where}")
                        raise
                durable[spec.content_hash()] = record
                if writer is not None:
                    if fresh:
                        writer.write(record.to_json_dict())
                    else:
                        writer.write_replayed(record.to_json_dict())
                self._observe_record(
                    record, tracer, metrics,
                    t_land, monotonic_clock() - t_land, worker, busy,
                )
        finally:
            if writer is not None:
                writer.close()

        records = [durable[h] for h in order]
        if stream_path is not None and not canonical:
            # Reordered/edited grid: impose canonical order atomically now
            # that every record is durable in the append-ordered stream.
            atomic_write_jsonl(
                stream_path, (r.to_json_dict() for r in records)
            )
        return records, len(pending) - len(misses), len(misses), len(durable) - len(pending)

    def run(
        self,
        executor: Executor | None = None,
        *,
        shards: int | None = None,
        shard_index: int | None = None,
        resume: bool = False,
        trace: bool = False,
        progress: "bool | ProgressReporter | None" = None,
    ) -> CampaignResult:
        """Execute the grid (or one shard of it) and persist JSONL records.

        Parameters
        ----------
        shards:
            Split the deduplicated grid into this many shards by spec
            content hash (:func:`~repro.engine.shard.shard_of`).  ``None``
            runs the campaign as shard 0 of 1, whose stream is the
            canonical ``<name>.jsonl``.
        shard_index:
            Run only this shard, streaming to
            ``<name>.shard-<i>-of-<n>.jsonl`` (``<name>.jsonl`` for one
            shard) plus an atomic completion mark.  ``None`` runs every
            shard in this process and, for two or more, merges them into
            the canonical ``<name>.jsonl``.
        resume:
            Replay the durable records of an interrupted stream and
            execute only what is missing.  Requires the checkpoint
            manifest written by the interrupted run; a manifest whose
            ``SPEC_VERSION``, campaign name, or shard count no longer
            matches is refused with an actionable
            :class:`~repro.errors.ShardError`.  Grid edits and scenario
            reordering are tolerated: records are matched by spec content
            hash, stale ones dropped, and the stream rewritten in
            canonical order if it drifted.
        trace:
            Stream span/mark/metrics events (DESIGN.md §8) to
            ``<results_dir>/<name>[.shard-…].events.jsonl`` through the
            same writer as the records (each event flushed whole, fsynced
            in groups of 64), so traces survive ``kill -9`` too.
            Requires a ``results_dir`` (:class:`~repro.errors.ObsError`
            otherwise).  On ``resume``, completed-run events survive and
            new ones append; replayed records emit nothing, so nothing
            duplicates.
        progress:
            Live progress on stderr: ``True`` for a default
            :class:`~repro.obs.progress.ProgressReporter`, or an instance
            for custom streams.  Runs off the same event bus as tracing
            but needs no ``results_dir`` (events stay in-process).

        Every persisted run (sharded or not) writes
        ``<results_dir>/<name>.manifest.json`` atomically, a completion
        mark per shard it finishes (``<name>.done`` for one shard), plus
        ``<name>[.shard-…].metrics.json`` — metrics are collected
        unconditionally; only *event streaming* is opt-in.  With
        ``use_cache``, the cache index is read from the record streams
        before anything is written, so a re-run replays its own previous
        stream before truncating it.
        """
        t0 = monotonic_clock()
        executor = executor or SerialExecutor()
        if shards is None and shard_index is not None:
            raise ShardError("shard_index requires shards")
        if shards is not None:
            if shards < 1:
                raise ShardError(f"shards must be >= 1, got {shards}")
            if shard_index is not None and not 0 <= shard_index < shards:
                raise ShardError(
                    f"shard index {shard_index} out of range for {shards} "
                    "shard(s) (valid: 0.."
                    f"{shards - 1})"
                )
        if (shards is not None or resume) and self.results_dir is None:
            raise ShardError(
                "sharded or resumed campaigns need a results_dir "
                "(durable streams and the checkpoint manifest live there)"
            )
        if trace and self.results_dir is None:
            raise ObsError(
                "traced campaigns need a results_dir (the event stream "
                "lives there); pass results_dir= or drop trace=True"
            )
        specs = self.specs()
        cache: dict[str, RunRecord] = {}
        if self.use_cache:
            cache = durable_records(
                self.results_dir, {s.content_hash() for s in specs}
            )

        reporter: ProgressReporter | None
        if progress is None or progress is False:
            reporter = None
        elif progress is True:
            reporter = ProgressReporter()
        else:
            reporter = progress

        metrics = MetricsRegistry()
        ev_path = None
        writer = None
        if trace:
            self.results_dir.mkdir(parents=True, exist_ok=True)
            ev_path = _events_path(
                self.results_dir, self.name,
                shard_index=shard_index, shards=shards,
            )
            if resume:
                # Drop a torn tail so appended events start on a clean
                # line; completed-run events survive the crash (replays
                # emit nothing, so appending cannot duplicate them).
                _evs, _torn, good_bytes = _load_partial_events(ev_path)
                if ev_path.exists() and ev_path.stat().st_size > good_bytes:
                    with ev_path.open("rb+") as fh:
                        fh.truncate(good_bytes)
            writer = JsonlStreamWriter(ev_path, append=resume)
        tracer: Tracer | NullTracer = NULL_TRACER
        if writer is not None or reporter is not None:
            tracer = Tracer(
                writer, subscribers=(reporter.on_event,) if reporter else ()
            )

        try:
            # An unsharded campaign is shard 0 of 1: its stream is the
            # canonical <name>.jsonl, completed by the same mark.
            n = shards or 1
            manifest = None
            if self.results_dir is not None:
                self.results_dir.mkdir(parents=True, exist_ok=True)
                if resume:
                    ShardManifest.load(self.results_dir, self.name).validate_for(
                        self.name, n
                    )
                manifest = ShardManifest.from_specs(self.name, specs, n)
                manifest.write(self.results_dir)

            with tracer.span("campaign", campaign=self.name,
                             executor=executor.kind):
                per_shard = shard_specs(specs, n)
                indices = (
                    [shard_index] if shard_index is not None else list(range(n))
                )
                tracer.mark(
                    "campaign-start", campaign=self.name,
                    runs=sum(len(per_shard[i]) for i in indices),
                    shards=shards, resume=resume,
                )
                records = []
                hits = misses = resumed = 0
                stream = None
                for i in indices:
                    if self.results_dir is not None:
                        stream = shard_stream_path(
                            self.results_dir, self.name, i, n
                        )
                        # A stale mark must not claim completion while the
                        # shard reruns.
                        shard_done_path(
                            self.results_dir, self.name, i, n
                        ).unlink(missing_ok=True)
                    with tracer.span("shard", shard=i, shards=n):
                        tracer.mark("shard-start", shard=i, shards=n,
                                    runs=len(per_shard[i]))
                        recs, h, m, r = self._run_stream(
                            per_shard[i], executor, stream, cache=cache,
                            resume=resume, tracer=tracer, metrics=metrics,
                            shard_index=None if shards is None else i,
                        )
                    if stream is not None:
                        write_done_marker(
                            self.results_dir, self.name, i, n,
                            records=len(recs),
                        )
                    records += recs
                    hits, misses, resumed = hits + h, misses + m, resumed + r

                jsonl_path = stream
                if n > 1 and shard_index is None:
                    # All shards ran here: publish the canonical merged
                    # file and hand records back in deduplicated grid order.
                    jsonl_path, _count = merge_shards(self.results_dir, self.name)
                    by_hash = {rec.spec.content_hash(): rec for rec in records}
                    records = [by_hash[h] for h in manifest.spec_hashes]
                tracer.mark("campaign-end", campaign=self.name)

            # The pinned definition of cache_hit_ratio (see
            # tests/engine/test_cache_hit_ratio.py): hits over *landed*
            # runs only — resumed replays are excluded from both sides,
            # exactly as the progress reporter excludes cached+resumed
            # from its rate.  Equivalently it is always derivable from the
            # additive counters as runs_cached / (runs_cached +
            # runs_started), which is how the serve scheduler recomputes
            # the fleet-level gauge after merging shard registries.
            landed = hits + misses
            metrics.set_gauge(
                "cache_hit_ratio", (hits / landed) if landed else 0.0
            )
            metrics.set_gauge("campaign_wall_seconds", monotonic_clock() - t0)
            snapshot = metrics.to_dict()
            tracer.metrics_snapshot(snapshot)

            m_path = None
            if self.results_dir is not None:
                m_path = _metrics_path(
                    self.results_dir, self.name,
                    shard_index=shard_index, shards=shards,
                )
                atomic_write_json(
                    m_path, {"campaign": self.name, "metrics": snapshot}
                )

            return CampaignResult(
                name=self.name,
                records=records,
                jsonl_path=jsonl_path,
                cache_hits=hits,
                cache_misses=misses,
                executor_kind=executor.kind,
                wall_seconds=monotonic_clock() - t0,
                shards=shards,
                shard_index=shard_index,
                resumed=resumed,
                metrics=snapshot,
                events_path=ev_path,
                metrics_path=m_path,
            )
        finally:
            tracer.close()

    # ------------------------------------------------------------------ #
    # (de)serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """JSON object form (inverse of :meth:`from_dict`)."""
        return {"name": self.name, "scenarios": [s.to_dict() for s in self.scenarios]}

    @classmethod
    def from_dict(
        cls,
        d: Mapping[str, Any],
        *,
        results_dir: str | pathlib.Path | None = "results",
        use_cache: bool = True,
    ) -> "Campaign":
        """Build from a JSON object with ``name`` and ``scenarios`` keys."""
        if "scenarios" not in d or not d["scenarios"]:
            raise ProtocolError("campaign spec needs a non-empty 'scenarios' list")
        return cls(
            [Scenario.from_dict(s) for s in d["scenarios"]],
            name=str(d.get("name", "campaign")),
            results_dir=results_dir,
            use_cache=use_cache,
        )


# --------------------------------------------------------------------- #
# builtin campaigns
# --------------------------------------------------------------------- #


@registry.register("smoke", kind="campaign")
def _builtin_smoke() -> list[Scenario]:
    """Seconds-long sanity sweep touching reconstruction, sketching, faults."""
    return [
        Scenario(name="smoke-forest", family="random_forest", sizes=(12, 16),
                 protocol="forest", seeds=(0, 1)),
        Scenario(name="smoke-degeneracy", family="random_k_degenerate", sizes=(16,),
                 protocol="degeneracy", seeds=(0,),
                 family_params={"k": 2}, protocol_params={"k": 2}),
        Scenario(name="smoke-connectivity", family="two_components", sizes=(16,),
                 protocol="agm_connectivity", seeds=(0,), shuffle_delivery=True),
        Scenario(name="smoke-faulty", family="random_forest", sizes=(12,),
                 protocol="forest", seeds=(0, 1),
                 faults=FaultSpec(drop=0.2, flip=0.2, seed=7)),
    ]


@registry.register("degeneracy-sweep", kind="campaign")
def _builtin_degeneracy_sweep() -> list[Scenario]:
    """Theorem 5 at campaign scale: k ∈ {1,2,3} across sizes and seeds."""
    return [
        Scenario(name=f"deg-k{k}", family="random_k_degenerate", sizes=(64, 128, 256),
                 protocol="degeneracy", seeds=(0, 1, 2, 3),
                 family_params={"k": k}, protocol_params={"k": k})
        for k in (1, 2, 3)
    ]


@registry.register("connectivity-sweep", kind="campaign")
def _builtin_connectivity_sweep() -> list[Scenario]:
    """AGM sketch accuracy: connected vs two-component inputs, many seeds."""
    sketch_seeds = tuple(range(8))
    return [
        Scenario(name="conn-tree", family="random_tree", sizes=(32, 64, 128),
                 protocol="agm_connectivity", seeds=(0, 1),
                 protocol_params={"sketch_seed": s})
        for s in sketch_seeds
    ] + [
        Scenario(name="conn-split", family="two_components", sizes=(32, 64, 128),
                 protocol="agm_connectivity", seeds=(0, 1),
                 protocol_params={"sketch_seed": s})
        for s in sketch_seeds
    ]


@registry.register("faults", kind="campaign")
def _builtin_faults() -> list[Scenario]:
    """Robustness: reconstruction and sketching under increasing fault rates."""
    out = []
    for rate in (0.01, 0.05, 0.2):
        fs = FaultSpec(drop=rate, duplicate=rate, flip=rate, seed=11)
        out.append(Scenario(name=f"faulty-forest-{rate}", family="random_forest",
                            sizes=(32, 64), protocol="forest", seeds=(0, 1, 2), faults=fs))
        out.append(Scenario(name=f"faulty-deg-{rate}", family="random_k_degenerate",
                            sizes=(32, 64), protocol="degeneracy", seeds=(0, 1, 2),
                            family_params={"k": 2}, protocol_params={"k": 2}, faults=fs))
        out.append(Scenario(name=f"faulty-conn-{rate}", family="random_tree",
                            sizes=(32, 64), protocol="agm_connectivity", seeds=(0, 1, 2),
                            faults=fs))
    return out


@registry.register("bench", kind="campaign")
def _builtin_bench() -> list[Scenario]:
    """The fixed load the process-pool speedup test times: 32 reconstructions at n=512."""
    return [
        Scenario(name="bench-deg", family="random_k_degenerate", sizes=(512,),
                 protocol="degeneracy", seeds=tuple(range(32)),
                 family_params={"k": 2}, protocol_params={"k": 2}),
    ]


def builtin_campaign(
    name: str,
    *,
    results_dir: str | pathlib.Path | None = "results",
    use_cache: bool = True,
) -> Campaign:
    """Instantiate a builtin campaign by name (from the campaign registry)."""
    canonical = registry.CAMPAIGN.resolve(name)  # UnknownRegistryEntry on typos
    return Campaign(registry.CAMPAIGN.get(canonical)(), name=canonical,
                    results_dir=results_dir, use_cache=use_cache)


def load_campaign(
    source: str | pathlib.Path,
    *,
    results_dir: str | pathlib.Path | None = "results",
    use_cache: bool = True,
) -> Campaign:
    """A builtin name, or a path to a JSON campaign spec."""
    if isinstance(source, str) and source in registry.CAMPAIGN:
        return builtin_campaign(source, results_dir=results_dir, use_cache=use_cache)
    path = pathlib.Path(source)
    if not path.exists():
        known = ", ".join(registry.CAMPAIGN.names())
        raise ProtocolError(
            f"{source!r} is neither a builtin campaign ({known}) "
            "nor an existing spec file"
        )
    return Campaign.from_dict(
        json.loads(path.read_text()), results_dir=results_dir, use_cache=use_cache
    )
