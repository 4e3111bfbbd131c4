"""Counters, gauges, and streaming histograms for the execution stack.

A :class:`MetricsRegistry` is a plain in-process accumulator in the
Prometheus naming style: three instrument families, optional label sets,
no background threads, no dependencies.  The engine keeps one per
campaign run — runs started/completed/cached/failed, fault injections by
kind, bits encoded, cache hit ratio, per-worker task counts and busy
time — and snapshots it into :class:`~repro.engine.campaign.CampaignResult`,
the shard manifest, ``<name>.metrics.json``, and the trace event stream.

Instruments are keyed by ``(name, sorted labels)`` rendered as
``name{k="v",...}`` — the exact series key Prometheus' text format uses,
so :func:`render_prometheus` is a direct dump.  Histograms are streaming
(count/total/min/max; mean derived at snapshot time): O(1) memory per
series regardless of campaign size.

Everything in a snapshot is sorted, so ``to_dict()`` output is stable and
diffable — the same discipline as every other JSON artifact this library
writes.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.errors import ObsError

__all__ = [
    "MetricsRegistry",
    "render_prometheus",
    "load_metrics_file",
]


def _series_key(name: str, labels: dict[str, Any]) -> str:
    """``name{k="v",...}`` with sorted labels; bare ``name`` when none."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Three instrument families behind one accumulator.

    * :meth:`inc` — monotonically increasing counters (events, totals);
    * :meth:`set_gauge` — point-in-time values (ratios, sizes);
    * :meth:`observe` — streaming histograms (durations).

    Not thread-safe by design: the engine's single-writer rule means all
    metric updates happen on the thread that lands records.
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict[str, float]] = {}

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` (default 1) to the counter series."""
        key = _series_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge series to ``value`` (last write wins)."""
        self._gauges[_series_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Fold ``value`` into the histogram series (O(1) memory)."""
        key = _series_key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            self._histograms[key] = {
                "count": 1, "total": value, "min": value, "max": value,
            }
        else:
            h["count"] += 1
            h["total"] += value
            h["min"] = min(h["min"], value)
            h["max"] = max(h["max"], value)

    def counter(self, name: str, **labels: Any) -> float:
        """Current counter value (0 when the series never fired)."""
        return self._counters.get(_series_key(name, labels), 0)

    def gauge(self, name: str, **labels: Any) -> float:
        """Current gauge value (0 when the series was never set)."""
        return self._gauges.get(_series_key(name, labels), 0)

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`to_dict` snapshot into this registry.

        The aggregation a long-lived service needs: each finished
        campaign's snapshot folds into the fleet-level registry so
        ``/metrics`` shows cumulative totals.  Counters add, gauges take
        the incoming value (last write wins — same as :meth:`set_gauge`),
        histograms fold count/total/min/max (the derived ``mean`` of the
        incoming snapshot is ignored and recomputed at the next
        :meth:`to_dict`).  Raises :class:`ObsError` on a snapshot missing
        one of the three sections, so a truncated file cannot fold in
        silently.
        """
        for section in ("counters", "gauges", "histograms"):
            if section not in snapshot:
                raise ObsError(
                    f"metrics snapshot is missing the {section!r} section"
                )
        for key, value in snapshot["counters"].items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, value in snapshot["gauges"].items():
            self._gauges[key] = value
        for key, incoming in snapshot["histograms"].items():
            h = self._histograms.get(key)
            if h is None:
                self._histograms[key] = {
                    "count": incoming["count"], "total": incoming["total"],
                    "min": incoming["min"], "max": incoming["max"],
                }
            else:
                h["count"] += incoming["count"]
                h["total"] += incoming["total"]
                h["min"] = min(h["min"], incoming["min"])
                h["max"] = max(h["max"], incoming["max"])

    def to_dict(self) -> dict[str, Any]:
        """The stable snapshot: sorted keys, histogram means derived."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                key: {**h, "mean": h["total"] / h["count"]}
                for key, h in sorted(self._histograms.items())
            },
        }


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """The snapshot in Prometheus text exposition format.

    Counters and gauges map directly; a streaming histogram becomes the
    conventional ``_count`` / ``_sum`` pair plus ``_min`` / ``_max``
    gauges.  Series order follows the (sorted) snapshot, so the output is
    byte-stable for identical snapshots.
    """
    for section in ("counters", "gauges", "histograms"):
        if section not in snapshot:
            raise ObsError(f"metrics snapshot is missing the {section!r} section")

    def prefixed(series: str) -> str:
        name, brace, labels = series.partition("{")
        return f"repro_{name}{brace}{labels}"

    lines: list[str] = []
    typed: set[str] = set()

    def emit(series: str, value: float, mtype: str) -> None:
        base = series.partition("{")[0]
        if base not in typed:
            typed.add(base)
            lines.append(f"# TYPE repro_{base} {mtype}")
        lines.append(f"{prefixed(series)} {value}")

    for series, value in snapshot["counters"].items():
        emit(series, value, "counter")
    for series, value in snapshot["gauges"].items():
        emit(series, value, "gauge")
    for series, h in snapshot["histograms"].items():
        name, brace, labels = series.partition("{")
        suffix = brace + labels
        emit(f"{name}_count{suffix}", h["count"], "counter")
        emit(f"{name}_sum{suffix}", h["total"], "counter")
        emit(f"{name}_min{suffix}", h["min"], "gauge")
        emit(f"{name}_max{suffix}", h["max"], "gauge")
    return "\n".join(lines) + "\n"


def load_metrics_file(path: str | pathlib.Path) -> dict[str, Any]:
    """Load a ``<name>.metrics.json`` sidecar; raise :class:`ObsError`.

    The file is the atomic snapshot :meth:`Campaign.run
    <repro.engine.campaign.Campaign.run>` writes next to the records; the
    returned dict carries ``campaign`` and the ``metrics`` snapshot.  Every
    counter and gauge must be a number and every histogram must hold
    numeric ``count``/``total``/``min``/``max``, so
    :func:`render_prometheus` never meets a series it cannot print.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ObsError(
            f"no metrics snapshot at {path}; run the campaign first "
            "(every persisted run writes one)"
        )
    try:
        raw = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise ObsError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("metrics"), dict):
        raise ObsError(f"{path} does not look like a metrics snapshot "
                       "(missing the 'metrics' key)")
    metrics = raw["metrics"]
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            raise ObsError(
                f"{path}: metrics snapshot is missing the {section!r} section"
            )
    for section in ("counters", "gauges"):
        for series, value in metrics[section].items():
            if not _is_number(value):
                raise ObsError(f"{path}: {section} series {series!r} is not "
                               f"a number: {value!r}")
    for series, h in metrics["histograms"].items():
        if not (isinstance(h, dict) and all(
                _is_number(h.get(field)) for field in ("count", "total", "min", "max"))):
            raise ObsError(f"{path}: histogram series {series!r} needs numeric "
                           f"count/total/min/max, got {h!r}")
    return raw


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
