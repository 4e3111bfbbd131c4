"""Align two campaigns run-by-run and report what changed.

Runs are matched on the *physical* spec content hash (scenario labels and
file order are provenance, not identity), so a refactored campaign spec
that sweeps the same grid still diffs cleanly against an old JSONL file.

Per matched run the deterministic result fields are compared — status,
output kind/digest, exactness, and the bit counts (with a configurable
relative tolerance).  Wall-clock ratios are computed but opt-in: timing is
the one nondeterministic part of a record, so it never contaminates the
default (byte-stable) report and never fails a diff unless a tolerance is
requested explicitly.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.results.aggregate import _PRECISION, RunningStats
from repro.results.records import index_by_spec_hash, within_tolerance

__all__ = ["RunDelta", "DiffReport", "diff_campaigns"]


def _spec_summary(record: Mapping) -> dict:
    spec = record["spec"]
    return {k: spec[k] for k in ("scenario", "family", "n", "seed", "protocol")}


@dataclass(frozen=True)
class RunDelta:
    """One matched run whose deterministic results disagree."""

    key: str                      # spec content hash
    spec: dict                    # scenario/family/n/seed/protocol summary (side a)
    field: str                    # which result field disagrees
    a: object
    b: object

    def to_dict(self) -> dict:
        return {"key": self.key, "spec": self.spec, "field": self.field,
                "a": self.a, "b": self.b}


@dataclass
class DiffReport:
    """Structured outcome of :func:`diff_campaigns`."""

    runs_a: int
    runs_b: int
    matched: int
    only_in_a: list[dict] = field(default_factory=list)
    only_in_b: list[dict] = field(default_factory=list)
    result_mismatches: list[RunDelta] = field(default_factory=list)
    bit_deltas: list[RunDelta] = field(default_factory=list)
    bits_tolerance: float = 0.0
    time_tolerance: float | None = None
    wall_ratio: dict | None = None    # summary of per-run wall_seconds b/a
    time_ok: bool | None = None       # None when no time tolerance was set

    @property
    def ok(self) -> bool:
        """Whether the two campaigns agree (the CI-gate verdict)."""
        return (
            not self.only_in_a
            and not self.only_in_b
            and not self.result_mismatches
            and not self.bit_deltas
            and self.time_ok is not False
        )

    def to_dict(self, *, include_timing: bool = False) -> dict:
        """JSON form; timing excluded by default so the output is byte-stable."""
        out = {
            "ok": self.ok,
            "runs_a": self.runs_a,
            "runs_b": self.runs_b,
            "matched": self.matched,
            "only_in_a": self.only_in_a,
            "only_in_b": self.only_in_b,
            "result_mismatches": [d.to_dict() for d in self.result_mismatches],
            "bit_deltas": [d.to_dict() for d in self.bit_deltas],
            "bits_tolerance": self.bits_tolerance,
        }
        if include_timing or self.time_tolerance is not None:
            out["time_tolerance"] = self.time_tolerance
            out["wall_ratio"] = self.wall_ratio
            out["time_ok"] = self.time_ok
        return out


_COMPARED_FIELDS = ("status", "output_kind", "output_digest", "exact")
_BIT_FIELDS = ("max_message_bits", "total_message_bits")


def diff_campaigns(
    records_a: Iterable[Mapping],
    records_b: Iterable[Mapping],
    *,
    bits_tolerance: float = 0.0,
    time_tolerance: float | None = None,
) -> DiffReport:
    """Compare two campaigns' records; see :class:`DiffReport`.

    ``bits_tolerance`` is relative: a bit count ``b`` matches baseline ``a``
    when ``|b - a| <= bits_tolerance * max(a, 1)`` (0.0 demands equality).
    ``time_tolerance`` (optional) bounds the mean per-run wall-clock ratio
    ``b / a``; when unset, timing is reported but never fails the diff.
    """
    if bits_tolerance < 0:
        raise SchemaError(f"bits_tolerance must be >= 0, got {bits_tolerance}")
    if time_tolerance is not None and time_tolerance <= 0:
        raise SchemaError(f"time_tolerance must be > 0, got {time_tolerance}")

    index_a = index_by_spec_hash(records_a, label="campaign a")
    index_b = index_by_spec_hash(records_b, label="campaign b")

    report = DiffReport(
        runs_a=len(index_a),
        runs_b=len(index_b),
        matched=0,
        bits_tolerance=bits_tolerance,
        time_tolerance=time_tolerance,
    )
    for key in sorted(set(index_a) - set(index_b)):
        report.only_in_a.append({"key": key, "spec": _spec_summary(index_a[key])})
    for key in sorted(set(index_b) - set(index_a)):
        report.only_in_b.append({"key": key, "spec": _spec_summary(index_b[key])})

    ratios: list[float] = []
    for key in sorted(set(index_a) & set(index_b)):
        a, b = index_a[key], index_b[key]
        report.matched += 1
        summary = _spec_summary(a)
        for name in _COMPARED_FIELDS:
            if a["result"][name] != b["result"][name]:
                report.result_mismatches.append(
                    RunDelta(key, summary, name, a["result"][name], b["result"][name])
                )
        for name in _BIT_FIELDS:
            va, vb = a["result"][name], b["result"][name]
            if not within_tolerance(va, vb, bits_tolerance):
                report.bit_deltas.append(RunDelta(key, summary, name, va, vb))
        wall_a = a["timing"].get("wall_seconds")
        wall_b = b["timing"].get("wall_seconds")
        if (isinstance(wall_a, (int, float)) and isinstance(wall_b, (int, float))
                and not isinstance(wall_a, bool) and not isinstance(wall_b, bool)
                and wall_a > 0):
            ratios.append(round(wall_b / wall_a, _PRECISION))

    if ratios:
        column = RunningStats(floats=True)
        for ratio in ratios:
            column.feed(ratio)
        report.wall_ratio = column.stats()
        if time_tolerance is not None:
            report.time_ok = report.wall_ratio["mean"] <= time_tolerance
    elif time_tolerance is not None:
        report.time_ok = True  # nothing to time against: vacuously within bound
    return report
