"""The trace event schema: validation, paths, and torn-tail-tolerant I/O.

One campaign run with ``--trace`` streams its telemetry to
``<results_dir>/<name>.events.jsonl`` (per-shard workers of two or more
shards to ``<name>.shard-<i>-of-<n>.events.jsonl``) through the same
:class:`~repro.engine.shard.JsonlStreamWriter` the record streams use.
Every event goes through its ``write`` (events are never replayed), so
each is flushed whole and the stream is fsynced once per 64 events and
at close: a crash tears at most the final event.  This module is
the read side of that contract, in the mold of
:mod:`repro.results.records`: a strict validator (unknown keys, wrong
types, negative durations all refused), version gating, and the
torn-tail scanner shared with shard streams.

Three event kinds, all carrying ``v`` = :data:`EVENT_VERSION`:

``span``
    A named interval in the span tree: ``span`` (id), ``parent`` (id or
    null), ``t0`` (monotonic-clock anchor), ``dur`` (seconds —
    authoritative; see :mod:`repro.obs.trace` on retro spans), ``attrs``.
``mark``
    A named instant: ``t``, ``attrs``.  The engine emits
    ``campaign-start`` / ``shard-start`` / ``resume-replay`` /
    ``worker-crash`` / ``campaign-end``.
``metrics``
    A :class:`~repro.obs.metrics.MetricsRegistry` snapshot at ``t``.

Validation failures raise :class:`~repro.errors.ObsError` with the same
file/line/field context the record validator gives for records.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Mapping
from typing import Any

from repro.errors import ObsError
from repro.obs.trace import EVENT_VERSION

__all__ = [
    "EVENT_VERSION",
    "EVENT_KINDS",
    "events_path",
    "metrics_path",
    "validate_event",
    "load_partial_events",
    "load_events",
]

EVENT_KINDS = ("span", "mark", "metrics")

_SPAN_FIELDS: dict[str, tuple[type, ...]] = {
    "v": (int,),
    "kind": (str,),
    "name": (str,),
    "span": (int,),
    "parent": (int, type(None)),
    "t0": (int, float),
    "dur": (int, float),
    "attrs": (dict,),
}

_MARK_FIELDS: dict[str, tuple[type, ...]] = {
    "v": (int,),
    "kind": (str,),
    "name": (str,),
    "t": (int, float),
    "attrs": (dict,),
}

_METRICS_FIELDS: dict[str, tuple[type, ...]] = {
    "v": (int,),
    "kind": (str,),
    "t": (int, float),
    "metrics": (dict,),
}

_FIELDS_BY_KIND = {
    "span": _SPAN_FIELDS,
    "mark": _MARK_FIELDS,
    "metrics": _METRICS_FIELDS,
}

#: JSON scalars allowed as span/mark attribute values.
_ATTR_SCALARS = (str, int, float, bool, type(None))


# --------------------------------------------------------------------- #
# paths
# --------------------------------------------------------------------- #


def _stem(name: str, shard_index: int | None, shards: int | None) -> str:
    """The shard rule of :mod:`repro.engine.shard`; no index is the
    campaign-wide stem (an all-shards-in-process run merges into it)."""
    if shard_index is None:
        return name
    from repro.engine.shard import _shard_stem  # lazy: keeps `repro trace` light

    return _shard_stem(name, shard_index, shards)


def events_path(
    results_dir: str | pathlib.Path,
    name: str,
    *,
    shard_index: int | None = None,
    shards: int | None = None,
) -> pathlib.Path:
    """``<results_dir>/<name>[.shard-<i>-of-<n>].events.jsonl``."""
    return pathlib.Path(results_dir) / f"{_stem(name, shard_index, shards)}.events.jsonl"


def metrics_path(
    results_dir: str | pathlib.Path,
    name: str,
    *,
    shard_index: int | None = None,
    shards: int | None = None,
) -> pathlib.Path:
    """``<results_dir>/<name>[.shard-<i>-of-<n>].metrics.json``."""
    return pathlib.Path(results_dir) / f"{_stem(name, shard_index, shards)}.metrics.json"


# --------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------- #


def validate_event(event: Mapping[str, Any], *, where: str = "event") -> dict:
    """Check one event against the schema above; return it as a dict.

    Strict in the :mod:`repro.results.records` sense — unknown keys,
    missing keys, wrong types (a bool never satisfies a number slot),
    unknown kinds, negative durations, and non-scalar attribute values
    all raise :class:`~repro.errors.ObsError`.  Events stamped with a
    newer :data:`EVENT_VERSION` are refused rather than misread.
    """
    from repro.results.records import check_mapping

    if not isinstance(event, Mapping):
        raise ObsError(f"{where}: event must be an object, got {type(event).__name__}")
    event = dict(event)
    kind = event.get("kind")
    if kind not in _FIELDS_BY_KIND:
        raise ObsError(
            f"{where}: event kind must be one of {EVENT_KINDS}, got {kind!r}"
        )
    check_mapping(event, _FIELDS_BY_KIND[kind], "event", where, error=ObsError)
    if event["v"] > EVENT_VERSION:
        raise ObsError(
            f"{where}: event version {event['v']} is newer than this reader "
            f"(understands <= {EVENT_VERSION})"
        )
    if kind == "span":
        if event["dur"] < 0:
            raise ObsError(f"{where}: event.dur must be >= 0, got {event['dur']}")
        if event["span"] < 1:
            raise ObsError(f"{where}: event.span must be >= 1, got {event['span']}")
    if kind in ("span", "mark"):
        for key, value in event["attrs"].items():
            if not isinstance(key, str):
                raise ObsError(f"{where}: attrs keys must be strings, got {key!r}")
            if not isinstance(value, _ATTR_SCALARS):
                raise ObsError(
                    f"{where}: attrs.{key} must be a JSON scalar, "
                    f"got {type(value).__name__}"
                )
    return event


# --------------------------------------------------------------------- #
# loading
# --------------------------------------------------------------------- #


def load_partial_events(
    path: str | pathlib.Path,
) -> tuple[list[dict], int, int]:
    """Load a possibly-interrupted event stream; tolerate a torn tail.

    Returns ``(events, torn, good_bytes)`` exactly like
    :func:`repro.engine.shard.load_partial_records` (the scan is the
    same machinery): validated events, how many trailing torn lines were
    dropped (0 or 1), and the truncation offset a resuming run uses so
    appended events start on a clean line.  Corruption anywhere but the
    tail raises :class:`~repro.errors.ShardError`; a missing file is an
    empty stream.
    """
    from repro.engine.shard import scan_partial_lines

    return scan_partial_lines(
        path,
        lambda raw: validate_event(json.loads(raw.decode())),
        what="event",
    )


def load_events(path: str | pathlib.Path) -> list[dict]:
    """Load a *complete* event stream; a torn tail is an error here.

    The conformance-mode reader (tests, strict tooling): for a stream
    that may still be growing — or died growing — use
    :func:`load_partial_events`.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ObsError(f"events file {path} does not exist")
    events, torn, _good = load_partial_events(path)
    if torn:
        raise ObsError(
            f"{path.name}: torn final event (the writer died mid-line); "
            "use load_partial_events for crash-tolerant reads"
        )
    return events
