"""The cross-campaign trend ledger: ``trends.jsonl``.

A frozen baseline answers "is this run worse than the pin?"; it cannot
answer "has p95 been creeping up for three releases?".  The trend ledger
closes that gap: every gated bench run (``repro bench --gate --trends``),
every ``repro report --trend`` and every merged serve job appends one
*point* per metric source to an append-only
``<results_dir>/trends.jsonl``, and the gates read the series back and
fail on trajectories, not just point regressions.  The daemon also
publishes each job's point as ``trend_*`` gauges on ``/metrics``.

A point is one canonical-JSON line::

    {"trend_version": 1, "kind": "bench" | "campaign",
     "key": "<content hash of what makes runs comparable>",
     "name": "<benchmark or campaign name>",
     "metrics": {"<metric>": <number>, ...}}

``key`` is a *content* hash — the sorted benchmark names + scale for a
bench suite, the manifest's spec-hash list for a campaign — so a series
only ever chains runs that measured the same thing; edit the grid or the
suite and the series starts fresh instead of comparing apples to oranges.

The file shares the durability contract of the shard streams, and
:func:`append_point` fsyncs its one line before it returns (the
writer's close): a crash tears at most the final line, :func:`load_points`
drops a torn tail silently, and corruption anywhere else raises
:class:`~repro.errors.StoreError`.

The regression rule (:func:`regressed`) is deliberately simple and
deliberately about *trajectory*: with the current run appended, the last
``window + 1`` values must be strictly increasing — "p95 regressed
``window`` consecutive runs".  One noisy spike does not trip it; a
monotone climb does.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.errors import ShardError, StoreError
from repro.results.records import check_mapping

if TYPE_CHECKING:
    from repro.results.aggregate import RunningStats

__all__ = [
    "TREND_VERSION",
    "TRENDS_FILENAME",
    "DEFAULT_WINDOW",
    "trends_path",
    "validate_point",
    "append_point",
    "load_points",
    "series",
    "regressed",
    "bench_trend_key",
    "campaign_trend_key",
    "campaign_point",
    "bench_point",
]

TREND_VERSION = 1
TRENDS_FILENAME = "trends.jsonl"

#: Consecutive strictly-increasing deltas that constitute a regression.
DEFAULT_WINDOW = 3

_POINT_FIELDS: dict[str, tuple[type, ...]] = {
    "trend_version": (int,),
    "kind": (str,),
    "key": (str,),
    "name": (str,),
    "metrics": (dict,),
}

_KINDS = ("bench", "campaign")


def trends_path(results_dir: str | pathlib.Path) -> pathlib.Path:
    """``<results_dir>/trends.jsonl`` — one ledger per results directory."""
    return pathlib.Path(results_dir) / TRENDS_FILENAME


def validate_point(point: Mapping, *, where: str = "trend point") -> dict:
    """Check one ledger entry; returns it as a plain dict."""
    point = dict(point)
    check_mapping(point, _POINT_FIELDS, "point", where, error=StoreError)
    if point["trend_version"] > TREND_VERSION:
        raise StoreError(
            f"{where}: trend_version {point['trend_version']} is newer than "
            f"this reader (understands <= {TREND_VERSION})"
        )
    if point["kind"] not in _KINDS:
        raise StoreError(
            f"{where}: kind must be one of {_KINDS}, got {point['kind']!r}"
        )
    if not point["metrics"]:
        raise StoreError(f"{where}: metrics must be non-empty")
    for name, value in point["metrics"].items():
        if not isinstance(name, str):
            raise StoreError(f"{where}: metric names must be strings")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise StoreError(
                f"{where}: metrics.{name} must be a number, "
                f"got {type(value).__name__}"
            )
    return point


def append_point(
    path: str | pathlib.Path, point: Mapping
) -> pathlib.Path:
    """Durably append one validated point: one line, one flush, and
    the one fsync the writer's close makes before this returns."""
    from repro.engine.shard import JsonlStreamWriter

    point = validate_point(point)
    with JsonlStreamWriter(path, append=True) as writer:
        writer.write(point)
    return writer.path


def load_points(path: str | pathlib.Path) -> list[dict]:
    """Read the ledger; missing file → empty, torn tail → dropped.

    Mid-stream corruption raises :class:`~repro.errors.StoreError` — an
    append-only ledger with a bad line in the middle was hand-edited or
    hit real disk corruption, and silently skipping points would bend the
    very series the gate trusts.
    """
    from repro.engine.shard import scan_partial_lines

    path = pathlib.Path(path)
    try:
        points, _torn, _good = scan_partial_lines(
            path,
            lambda raw: validate_point(json.loads(raw.decode())),
            what="trend point",
        )
    except ShardError as exc:
        raise StoreError(str(exc)) from None
    return points


def series(
    points: Iterable[Mapping],
    *,
    kind: str,
    key: str,
    name: str,
    metric: str,
) -> list[float]:
    """One metric's values across comparable runs, in ledger order."""
    out: list[float] = []
    for point in points:
        if (point["kind"] == kind and point["key"] == key
                and point["name"] == name and metric in point["metrics"]):
            out.append(point["metrics"][metric])
    return out


def regressed(values: Sequence[float], *, window: int = DEFAULT_WINDOW) -> bool:
    """True when the last ``window`` deltas are all strictly increasing.

    Needs at least ``window + 1`` points — a young series cannot regress.
    """
    if window < 1:
        raise StoreError(f"trend window must be >= 1, got {window}")
    if len(values) < window + 1:
        return False
    tail = values[-(window + 1):]
    return all(b > a for a, b in zip(tail, tail[1:]))


def bench_trend_key(names: Iterable[str], scale: float) -> str:
    """Content key for a bench suite: same benches + scale ⇒ same series."""
    payload = json.dumps(
        {"names": sorted(names), "scale": scale}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def campaign_trend_key(spec_hashes: Sequence[str]) -> str:
    """Content key for a campaign grid: same specs ⇒ same series."""
    return hashlib.sha256("\n".join(spec_hashes).encode()).hexdigest()[:16]


def bench_point(
    *, key: str, name: str, wall_p95_seconds: float
) -> dict:
    """The ledger entry for one benchmark of one gated suite run."""
    return {
        "trend_version": TREND_VERSION,
        "kind": "bench",
        "key": key,
        "name": name,
        "metrics": {"wall_p95_seconds": wall_p95_seconds},
    }


def campaign_point(
    *, name: str, spec_hashes: Sequence[str], bits: RunningStats
) -> dict:
    """The ledger entry for one merged campaign.

    ``bits`` has been fed every record's ``result.max_message_bits`` —
    the paper's headline number, and the one whose slow creep across
    re-runs a single frozen baseline misses.  Metrics are the record
    count and the mean / p95 of those bits.
    """
    if bits.count == 0:
        raise StoreError(f"campaign {name!r}: no records to summarize")
    stats = bits.stats()
    return {
        "trend_version": TREND_VERSION,
        "kind": "campaign",
        "key": campaign_trend_key(spec_hashes),
        "name": name,
        "metrics": {
            "records": stats["count"],
            "max_message_bits_mean": stats["mean"],
            "max_message_bits_p95": stats["p95"],
        },
    }
