"""Sharded, checkpointed campaign execution: split, stream, mark, merge.

A :class:`~repro.engine.campaign.Campaign` is embarrassingly parallel
across runs, but until this module a campaign was a single monolithic
fan-out: kill a 10k-run sweep at run 9,999 and everything re-executes,
and there is no way to split one campaign across worker processes,
machines, or CI matrix jobs.  This module adds the four pieces that fix
that, each crash-consistent on its own:

**Deterministic sharding** — :func:`shard_of` assigns every deduplicated
:class:`~repro.engine.scenario.RunSpec` to one of ``n`` shards by its
*content hash*, never by its position in the grid.  Assignment is a
partition (disjoint and covering, by construction) and is stable under
scenario reordering and grid edits: adding a scenario never moves an
existing spec to a different shard, so completed shard streams stay
valid.

**The checkpoint manifest** — ``<results_dir>/<name>.manifest.json``
records the campaign name, shard count, the engine
:data:`~repro.engine.scenario.SPEC_VERSION`, and the full ordered list of
spec content hashes.  Concurrent shard workers are safe because every
write is atomic (temp file + ``os.replace``) and every field is
identical across workers of the same grid; completion lives only in the
per-shard done markers.  On
``resume`` the manifest is the contract — a stale ``SPEC_VERSION``,
renamed campaign, or changed shard count is refused with an actionable
message instead of silently mixing semantics.  An *edited grid* is not an
error: hash-based membership means surviving specs replay from the
streams, stale records are dropped, and the manifest is rewritten.

**Incremental per-shard streaming** — each shard appends finished records
to ``<name>.shard-<i>-of-<n>.jsonl`` through :class:`JsonlStreamWriter`:
every line is flushed whole, and the stream is fsynced once per 64 fresh
records (replayed lines, i.e. cache hits, do not count).  A killed
process can therefore tear at most the final line;
:func:`load_partial_records` detects a torn tail, drops it, and reports
it so ``resume`` re-runs exactly that spec.  A power loss can also lose
the unsynced window since the last fsync, whose specs ``resume``
re-executes.  When a shard finishes and its writer has closed (closing
fsyncs any unsynced tail), :func:`write_done_marker` atomically
publishes ``<name>.shard-<i>-of-<n>.done`` with the record count — the
completion mark :func:`merge_shards` trusts.  An unsharded campaign is
shard 0 of 1, and a one-shard stem is plain ``<name>``: its stream is the
canonical ``<name>.jsonl`` and its mark ``<name>.done``.

**Merge** — :func:`merge_shards` verifies every shard's done marker and
record set against the manifest, then reassembles the canonical
``<name>.jsonl`` in manifest (= deterministic spec) order (for one shard,
a verified canonical rewrite of the stream in place).  The merged
bytes equal a single-process run's output modulo the ``timing`` and
``cached`` sidecars, which is the invariant the crash/resume test battery
pins.

Crash-consistency invariants (DESIGN.md §7):

1. every durable artifact is either absent, complete, or — for shard
   streams only — torn in its final line; a power loss may also cut a
   stream back to any point after its last fsync;
2. the manifest and done markers only ever appear atomically;
3. resume never re-executes a spec whose record is on disk whole, and
   always re-executes a spec whose record is absent or torn;
4. shard membership is a pure function of ``(spec content hash, n)``.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError, ShardError, ShardIncomplete
from repro.engine.scenario import SPEC_VERSION, RunRecord, RunSpec

__all__ = [
    "MANIFEST_VERSION",
    "shard_of",
    "shard_specs",
    "manifest_path",
    "shard_stream_path",
    "shard_done_path",
    "ShardManifest",
    "JsonlStreamWriter",
    "atomic_write_json",
    "atomic_write_jsonl",
    "scan_partial_lines",
    "load_partial_records",
    "durable_records",
    "write_done_marker",
    "read_done_marker",
    "merge_shards",
]

#: Bumped whenever the manifest schema changes; a manifest from a newer
#: engine is refused rather than misread.
MANIFEST_VERSION = 1


# --------------------------------------------------------------------- #
# deterministic shard assignment
# --------------------------------------------------------------------- #


def shard_of(spec_hash: str, shards: int) -> int:
    """The shard owning ``spec_hash``, out of ``shards``.

    A pure function of the content hash — never of grid position — so
    membership survives scenario reordering and grid edits, and any two
    workers agree without coordination.
    """
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}")
    return int(spec_hash[:16], 16) % shards


def shard_specs(specs: Sequence[RunSpec], shards: int) -> list[list[RunSpec]]:
    """Partition ``specs`` into ``shards`` ordered sub-lists.

    Disjoint and covering by construction; each sub-list preserves the
    deduplicated grid order, so per-shard streams are themselves
    deterministic.
    """
    out: list[list[RunSpec]] = [[] for _ in range(max(1, shards))]
    for spec in specs:
        out[shard_of(spec.content_hash(), shards)].append(spec)
    return out


# --------------------------------------------------------------------- #
# paths
# --------------------------------------------------------------------- #


def manifest_path(results_dir: str | pathlib.Path, name: str) -> pathlib.Path:
    """``<results_dir>/<name>.manifest.json``."""
    return pathlib.Path(results_dir) / f"{name}.manifest.json"


def _shard_stem(name: str, index: int, shards: int) -> str:
    """One shard's file stem: ``<name>`` for the only shard of one, else
    ``<name>.shard-<i>-of-<n>`` — an unsharded campaign is shard 0 of 1."""
    return name if shards == 1 else f"{name}.shard-{index}-of-{shards}"


def shard_stream_path(
    results_dir: str | pathlib.Path, name: str, index: int, shards: int
) -> pathlib.Path:
    """``<results_dir>/<name>.shard-<i>-of-<n>.jsonl`` (``<name>.jsonl``
    for one shard)."""
    return pathlib.Path(results_dir) / f"{_shard_stem(name, index, shards)}.jsonl"


def shard_done_path(
    results_dir: str | pathlib.Path, name: str, index: int, shards: int
) -> pathlib.Path:
    """The atomic completion mark next to one shard's stream."""
    return pathlib.Path(results_dir) / f"{_shard_stem(name, index, shards)}.done"


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` durably: temp file in the same directory, fsync, rename.

    ``os.replace`` is atomic on POSIX, so readers only ever observe the
    old bytes or the new bytes — never a torn file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: pathlib.Path, payload: Mapping[str, Any]) -> None:
    """Atomically publish one JSON document (manifest / done marker /
    metrics snapshot) — sorted keys, indented, fsync, rename."""
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2))



def atomic_write_jsonl(
    path: pathlib.Path, records: Iterable[Mapping[str, Any]]
) -> None:
    """Atomically publish a whole JSONL file in canonical line form.

    The complement of :class:`JsonlStreamWriter`: streams trade atomicity
    for incremental durability while a campaign runs; finished artifacts
    (the merged canonical JSONL, a canonical rewrite after a reordered
    resume) appear all-or-nothing so a crash can never publish a
    truncated file that reads as complete.
    """
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    _atomic_write_text(path, text)


# --------------------------------------------------------------------- #
# the checkpoint manifest
# --------------------------------------------------------------------- #


@dataclass
class ShardManifest:
    """The durable contract for one sharded (or resumable) campaign.

    Records *what* the campaign is — name, shard count, engine
    :data:`~repro.engine.scenario.SPEC_VERSION`, and the ordered spec
    content hashes — so a resume or a merge can refuse anything that no
    longer matches.  Completion state lives only in the per-shard
    ``.done`` markers (atomic, single-writer); :meth:`completion` reads
    them.
    """

    campaign: str
    shards: int
    spec_hashes: list[str]
    spec_version: int = SPEC_VERSION
    manifest_version: int = MANIFEST_VERSION

    @classmethod
    def from_specs(
        cls, campaign: str, specs: Sequence[RunSpec], shards: int
    ) -> "ShardManifest":
        """Build the manifest for a deduplicated grid."""
        if shards < 1:
            raise ShardError(f"shards must be >= 1, got {shards}")
        return cls(
            campaign=campaign,
            shards=shards,
            spec_hashes=[s.content_hash() for s in specs],
        )

    def assignments(self) -> dict[str, int]:
        """``spec hash -> owning shard`` for the whole grid."""
        return {h: shard_of(h, self.shards) for h in self.spec_hashes}

    def shard_hashes(self, index: int) -> list[str]:
        """The hashes one shard owns, in deterministic grid order."""
        if not 0 <= index < self.shards:
            raise ShardError(
                f"shard index {index} out of range for {self.shards} shard(s)"
            )
        return [h for h in self.spec_hashes if shard_of(h, self.shards) == index]

    def completion(self, results_dir: str | pathlib.Path) -> list[bool]:
        """Per-shard completion, read from the authoritative done markers."""
        return [
            shard_done_path(results_dir, self.campaign, i, self.shards).exists()
            for i in range(self.shards)
        ]

    def to_dict(self) -> dict:
        """JSON object form (inverse of :meth:`from_dict`, which ignores
        unknown keys such as an older engine's ``completed`` snapshot)."""
        return {
            "manifest_version": self.manifest_version,
            "spec_version": self.spec_version,
            "campaign": self.campaign,
            "shards": self.shards,
            "spec_hashes": list(self.spec_hashes),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any], *, where: str = "manifest") -> "ShardManifest":
        """Rebuild from JSON; refuses schemas newer than this engine."""
        for key in ("manifest_version", "spec_version", "campaign", "shards",
                    "spec_hashes"):
            if key not in d:
                raise ShardError(f"{where}: missing key {key!r}")
        try:
            manifest = cls(
                campaign=str(d["campaign"]),
                shards=int(d["shards"]),
                spec_hashes=[str(h) for h in d["spec_hashes"]],
                spec_version=int(d["spec_version"]),
                manifest_version=int(d["manifest_version"]),
            )
        except (TypeError, ValueError) as exc:
            raise ShardError(f"{where}: malformed manifest field: {exc}") from None
        if manifest.manifest_version > MANIFEST_VERSION:
            raise ShardError(
                f"{where}: manifest_version {manifest.manifest_version} is "
                f"newer than this engine (understands <= {MANIFEST_VERSION})"
            )
        return manifest

    def write(self, results_dir: str | pathlib.Path) -> pathlib.Path:
        """Atomically publish the manifest."""
        path = manifest_path(results_dir, self.campaign)
        atomic_write_json(path, self.to_dict())
        return path

    @classmethod
    def load(cls, results_dir: str | pathlib.Path, name: str) -> "ShardManifest":
        """Load ``<results_dir>/<name>.manifest.json`` or raise ShardError."""
        path = manifest_path(results_dir, name)
        if not path.exists():
            raise ShardError(
                f"no checkpoint manifest at {path}; run the campaign without "
                "--resume first (it writes the manifest), or check --results-dir"
            )
        try:
            raw = json.loads(path.read_text())
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise ShardError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ShardError(f"{path} must hold a JSON object")
        return cls.from_dict(raw, where=str(path))

    def validate_for(self, campaign: str, shards: int) -> None:
        """Refuse to resume against a manifest that no longer matches.

        Checks, in order of loudness: engine :data:`SPEC_VERSION` (a stale
        manifest means the record semantics changed under the checkpoint),
        campaign name, and shard count (streams are per-count files).
        Each failure names the fix: re-run without ``resume`` (or delete
        the manifest) to restart the campaign from scratch.

        A *grid edit* is deliberately NOT a failure: shard membership is a
        pure function of the spec content hash, so completed stream
        records for surviving specs replay as-is — stale records are
        dropped and new specs executed.  The manifest is rewritten to the
        current grid before the run proceeds.
        """
        hint = (f"re-run without --resume (or delete "
                f"{manifest_path('<results_dir>', self.campaign).name}) to "
                "restart the campaign from scratch")
        if self.spec_version != SPEC_VERSION:
            raise ShardError(
                f"checkpoint manifest for {self.campaign!r} was written at "
                f"SPEC_VERSION {self.spec_version}, but this engine is at "
                f"SPEC_VERSION {SPEC_VERSION}; its records are not comparable "
                f"— {hint}"
            )
        if self.campaign != campaign:
            raise ShardError(
                f"checkpoint manifest names campaign {self.campaign!r}, "
                f"not {campaign!r} — {hint}"
            )
        if self.shards != shards:
            raise ShardError(
                f"campaign {campaign!r} was checkpointed with "
                f"{self.shards} shard(s) but is being resumed with {shards}; "
                f"shard streams are per-count — {hint}"
            )


# --------------------------------------------------------------------- #
# durable JSONL streaming and torn-line-tolerant loading
# --------------------------------------------------------------------- #


#: Fresh lines :meth:`JsonlStreamWriter.write` leaves unsynced before one
#: fsync commits them as a group: the power-loss window of DESIGN.md §7.
_SYNC_EVERY = 64


class JsonlStreamWriter:
    """Append JSONL records: every line flushed whole, fsynced in groups.

    :meth:`write` flushes its line and fsyncs once every
    ``_SYNC_EVERY`` (64) fresh lines, which makes every earlier line
    durable too.  :meth:`write_replayed` is for a record that was already
    durable (a cache hit): its line is flushed whole but does not count
    toward the window.  :meth:`close` fsyncs once if any line is still
    unsynced.  Every line reaches the file in one flush, so a killed
    process tears *at most the final line* — the invariant
    :func:`load_partial_records` (and therefore resume) relies on; a
    power loss can also lose the lines written since the last fsync,
    whose specs resume re-executes.  Use as a context manager.
    """

    def __init__(self, path: str | pathlib.Path, *, append: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a" if append else "w")
        self.written = 0
        self._fresh = 0  # fresh lines since the last fsync
        self._unsynced = False  # any line, fresh or replayed, since then

    def _append(self, record: Mapping[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        self.written += 1
        self._unsynced = True

    def _sync(self) -> None:
        os.fsync(self._fh.fileno())
        self._fresh = 0
        self._unsynced = False

    def write(self, record: Mapping[str, Any]) -> None:
        """Append one canonical (sorted-keys) record line; every 64th
        fresh line since the last fsync syncs the stream."""
        self._append(record)
        self._fresh += 1
        if self._fresh >= _SYNC_EVERY:
            self._sync()

    def write_replayed(self, record: Mapping[str, Any]) -> None:
        """Append the same canonical line as :meth:`write`, flushed but
        not counted toward the window; the next fsync syncs it."""
        self._append(record)

    def close(self) -> None:
        if self._fh.closed:
            return
        try:
            if self._unsynced:
                self._sync()
        finally:
            self._fh.close()

    def __enter__(self) -> "JsonlStreamWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def scan_partial_lines(
    path: str | pathlib.Path,
    parse,
    *,
    what: str = "record",
) -> tuple[list, int, int]:
    """Scan a :class:`JsonlStreamWriter` stream, tolerating one torn tail.

    The machinery behind :func:`load_partial_records` (shard/record
    streams) and :func:`repro.obs.events.load_partial_events` (trace
    event streams), which share the :class:`JsonlStreamWriter`
    durability contract and therefore the same recovery rules.
    ``parse`` maps one raw line (bytes) to a value; any
    :class:`ValueError` / :class:`KeyError` / :class:`TypeError` /
    :class:`~repro.errors.ReproError` it raises marks the line malformed.

    Returns ``(values, torn, good_bytes)``: the cleanly-parsed values,
    how many trailing torn lines were dropped (0 or 1), and the byte
    offset just past the last good line — the truncation point a resume
    uses so appended lines start clean.

    Because the writer flushes every line whole (and fsyncs in groups
    of 64 fresh lines), only the *final* line can be incomplete after a
    crash or a power loss; a line counts only when
    it is newline-terminated **and** parses.  A malformed line anywhere but the
    tail means real corruption and raises
    :class:`~repro.errors.ShardError` instead of silently skipping data.
    A missing file is an empty stream.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [], 0, 0
    data = path.read_bytes()
    # JSON is dumped with ensure_ascii, so byte and character offsets agree.
    lines = data.split(b"\n")  # a clean file ends with one b"" element
    values: list = []
    good_bytes = 0
    for i, raw in enumerate(lines):
        terminated = i < len(lines) - 1
        if not raw.strip():
            if terminated:
                good_bytes += len(raw) + 1
            continue
        parsed = None
        ok = False
        try:
            parsed = parse(raw)
            ok = True
        except (ValueError, KeyError, TypeError, ReproError):
            ok = False
        if not ok or not terminated:
            tail = all(not rest.strip() for rest in lines[i + 1:])
            if tail:
                return values, 1, good_bytes  # the one tear fsync allows
            raise ShardError(
                f"{path.name}:{i + 1}: corrupt {what} mid-stream; only the "
                f"final line can be torn — delete the {what} stream to "
                "recompute it"
            )
        values.append(parsed)
        good_bytes += len(raw) + 1
    return values, 0, good_bytes


def load_partial_records(
    path: str | pathlib.Path,
) -> tuple[list[RunRecord], int, int]:
    """Load a possibly-interrupted shard stream; tolerate a torn tail.

    ``(records, torn, good_bytes)`` — see :func:`scan_partial_lines`,
    which this wraps with the :class:`RunRecord` parser.  A
    terminator-less tail is re-run rather than trusted: recomputation is
    deterministic, so only the ``timing`` sidecar can differ.
    """
    return scan_partial_lines(
        path,
        lambda raw: RunRecord.from_json_dict(json.loads(raw.decode())),
        what="record",
    )


def durable_records(
    results_dir: str | pathlib.Path, wanted: set[str]
) -> dict[str, RunRecord]:
    """The run cache: every durable record under ``results_dir`` for ``wanted``.

    The record streams already are an append-only, single-writer log of
    every finished run (every line flushed whole, fsynced in groups of
    64 fresh lines), so they double as the cache
    (DESIGN.md §7).  Each ``<name>.manifest.json`` names one campaign's
    streams: ``<name>.jsonl`` and ``<name>.shard-<i>-of-<n>.jsonl``.  A
    manifest that does not load, names another campaign than its file,
    or was written at another :data:`SPEC_VERSION` is skipped, and so is
    a stream corrupt mid-stream; their specs simply recompute.  A torn
    tail drops only that record.  Only hashes in ``wanted`` (the grid
    being run) are kept, so memory is bounded by the grid, not by
    everything in a shared results directory.
    """
    results_dir = pathlib.Path(results_dir)
    found: dict[str, RunRecord] = {}
    suffix = ".manifest.json"
    for path in sorted(results_dir.glob(f"*{suffix}")):
        name = path.name[: -len(suffix)]
        try:
            manifest = ShardManifest.load(results_dir, name)
        except ShardError:
            continue
        if manifest.campaign != name or manifest.spec_version != SPEC_VERSION:
            continue
        # For one shard, its stream *is* <name>.jsonl: read each file once.
        streams = dict.fromkeys([results_dir / f"{name}.jsonl"] + [
            shard_stream_path(results_dir, name, i, manifest.shards)
            for i in range(manifest.shards)
        ])
        for stream in streams:
            try:
                records, _torn, _good = load_partial_records(stream)
            except ShardError:
                continue
            for record in records:
                h = record.spec.content_hash()
                if h in wanted:
                    found[h] = record
    return found


# --------------------------------------------------------------------- #
# completion marks
# --------------------------------------------------------------------- #


def write_done_marker(
    results_dir: str | pathlib.Path,
    name: str,
    index: int,
    shards: int,
    *,
    records: int,
) -> pathlib.Path:
    """Atomically publish one shard's completion mark (record count inside)."""
    path = shard_done_path(results_dir, name, index, shards)
    atomic_write_json(path, {
        "campaign": name,
        "shard": index,
        "shards": shards,
        "records": records,
        "spec_version": SPEC_VERSION,
    })
    return path


def read_done_marker(
    results_dir: str | pathlib.Path, name: str, index: int, shards: int
) -> dict | None:
    """The completion mark's payload, or ``None`` while the shard runs."""
    path = shard_done_path(results_dir, name, index, shards)
    if not path.exists():
        return None
    try:
        raw = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise ShardError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ShardError(f"{path} must hold a JSON object")
    return raw


# --------------------------------------------------------------------- #
# merge
# --------------------------------------------------------------------- #


def merge_shards(
    results_dir: str | pathlib.Path, name: str
) -> tuple[pathlib.Path, int]:
    """Reassemble shard streams into the canonical ``<name>.jsonl``.

    Verifies every shard against the manifest before writing a byte:
    each shard must carry a done marker, its stream must parse cleanly
    (an incomplete shard shows up as a missing marker, a torn line, or a
    missing spec), the marker's record count must match, and the union of
    streams must cover the manifest's spec-hash list exactly.  Records
    are then emitted in manifest order — the same deduplicated grid order
    a single-process run uses — so the merged file is byte-stable modulo
    the ``timing``/``cached`` sidecars.

    Returns ``(path, records)``.
    """
    results_dir = pathlib.Path(results_dir)
    manifest = ShardManifest.load(results_dir, name)
    if manifest.spec_version != SPEC_VERSION:
        raise ShardError(
            f"checkpoint manifest for {name!r} was written at SPEC_VERSION "
            f"{manifest.spec_version}, but this engine is at SPEC_VERSION "
            f"{SPEC_VERSION}; re-run the campaign to refresh its shards"
        )

    fix = "resume it (campaign ... --resume) before merging"
    out_path = results_dir / f"{name}.jsonl"
    by_hash: dict[str, RunRecord] = {}
    for index in range(manifest.shards):
        marker = read_done_marker(results_dir, name, index, manifest.shards)
        stream = shard_stream_path(results_dir, name, index, manifest.shards)
        if marker is None:
            raise ShardIncomplete(
                f"shard {index}/{manifest.shards} of {name!r} has no "
                f"completion mark; {fix}"
            )
        records, torn, _good = load_partial_records(stream)
        if torn:
            raise ShardIncomplete(
                f"shard {index}/{manifest.shards} of {name!r} has a torn "
                f"final line in {stream.name} despite a completion mark; "
                f"{fix}"
            )
        if marker.get("records") != len(records):
            raise ShardIncomplete(
                f"shard {index}/{manifest.shards} of {name!r} marks "
                f"{marker.get('records')} record(s) complete but its stream "
                f"holds {len(records)}; {fix}"
            )
        expected = set(manifest.shard_hashes(index))
        for record in records:
            h = record.spec.content_hash()
            if h not in expected:
                raise ShardError(
                    f"shard {index}/{manifest.shards} of {name!r} holds a "
                    f"record for spec {h} it does not own (grid edit without "
                    "a manifest refresh?); re-run the campaign"
                )
            by_hash[h] = record

    missing = [h for h in manifest.spec_hashes if h not in by_hash]
    if missing:
        raise ShardIncomplete(
            f"merge of {name!r}: {len(missing)} spec(s) have no record "
            f"(first missing: {missing[0]}); {fix}"
        )

    # All-or-nothing: a crash mid-merge must not publish a truncated
    # canonical file that downstream readers would take as complete.
    atomic_write_jsonl(
        out_path, (by_hash[h].to_json_dict() for h in manifest.spec_hashes)
    )
    return out_path, len(manifest.spec_hashes)
