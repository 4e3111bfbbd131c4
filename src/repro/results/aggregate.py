"""Group-by analytics over campaign records.

Campaigns answer the paper's claims *in aggregate*: message size scaling
(Lemma 2's ``O(k² log n)``), exactness rates (Theorem 5), fault outcomes.
:func:`aggregate` groups validated records by any subset of spec axes and
computes min / mean / max / p95 of the bit counts, exactness and status
rates, fault-event totals, and a Lemma-2-style normalization column
``max_message_bits / (k² · log₂ n)`` so the bound shows up as a flat line
across ``n``.

Group state is **bounded**: no column ever materializes its value list.
Each numeric column keeps a running min/max/count, an exactly-rounded sum
(integer arithmetic for the bit columns, Shewchuk partials — the
``math.fsum`` algorithm — for float columns), and a
:class:`QuantileSketch` for p95.  The sketch is exact up to
:data:`SKETCH_EXACT_LIMIT` distinct values per group (where the reported
p95 equals :func:`percentile` bit for bit) and beyond that spills to
log-spaced buckets of :data:`SKETCH_SUBBUCKETS` sub-buckets per octave,
bounding the relative error of the reported p95 (which is always an
observed value) by ``2^(1/SKETCH_SUBBUCKETS) - 1`` ≈ 9.1%.

Every piece of group state is **order-independent**: counts and integer
sums commute, exact float summation is exactly rounded regardless of feed
order, and the sketch's exact→spill transition depends only on the value
multiset.  That is what lets the incremental :class:`Aggregator` — fed
shard streams as they land, in any shard factorization — produce output
bit-for-bit equal to a batch :func:`aggregate` over the merged file
(pinned by the fuzz suite in ``tests/results/test_fuzz_incremental.py``).

Everything here is deterministic given the records: means are rounded to a
fixed precision, groups are emitted in sorted key order, and timing columns
are opt-in (they are the one nondeterministic part of a record).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

from repro.errors import SchemaError

__all__ = [
    "DEFAULT_AXES",
    "SKETCH_EXACT_LIMIT",
    "SKETCH_SUBBUCKETS",
    "QuantileSketch",
    "RunningStats",
    "Aggregator",
    "percentile",
    "normalized_bits",
    "aggregate",
    "aggregate_table",
]

#: The spec axes a report may group by ("faults" is the compact label below).
GROUPABLE_AXES = (
    "scenario", "family", "n", "seed", "protocol", "shuffle_delivery",
    "budget_bits", "faults",
)

DEFAULT_AXES = ("protocol", "family", "n")

#: Rounding applied to every derived float, so reports are byte-stable.
_PRECISION = 6

#: Distinct values per group below which the p95 sketch is exact.
SKETCH_EXACT_LIMIT = 4096

#: Log-bucket resolution after spilling: sub-buckets per powers-of-two
#: octave.  The reported quantile is an observed value from the selected
#: bucket, so its relative error is at most ``2**(1/SKETCH_SUBBUCKETS)-1``.
SKETCH_SUBBUCKETS = 8


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    if not values:
        raise SchemaError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise SchemaError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class QuantileSketch:
    """Bounded, order-independent quantile state for one numeric column.

    Exact mode keeps a ``value -> count`` table; nearest-rank quantiles
    over its sorted keys equal :func:`percentile` of the full value list.
    Once the table exceeds :data:`SKETCH_EXACT_LIMIT` distinct values it
    spills into log-spaced buckets (``SKETCH_SUBBUCKETS`` per octave),
    each holding a count and the maximum observed value; a quantile then
    returns the selected bucket's max — still an observed value, with
    relative rank-value error bounded by ``2**(1/SKETCH_SUBBUCKETS)-1``.

    All updates commute (counts add, maxes max, and the spill threshold
    depends only on the distinct-value set), so the final state — and
    every reported quantile — is independent of feed order.
    """

    __slots__ = ("count", "_exact", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self._exact: dict | None = {}
        self._buckets: dict[tuple, list] | None = None

    @property
    def spilled(self) -> bool:
        """True once the exact table has given way to log buckets."""
        return self._buckets is not None

    @staticmethod
    def _bucket_key(value) -> tuple:
        # (sign, index) sorted by true numeric order: negatives ascend as
        # |value| descends, hence the flipped index.
        if value == 0:
            return (0, 0)
        idx = math.floor(math.log2(abs(value)) * SKETCH_SUBBUCKETS)
        return (1, idx) if value > 0 else (-1, -idx)

    @staticmethod
    def _fold(buckets: dict[tuple, list], key: tuple, count: int, vmax) -> None:
        # One bucket update: counts add, the bucket keeps its largest value.
        slot = buckets.get(key)
        if slot is None:
            buckets[key] = [count, vmax]
        else:
            slot[0] += count
            if vmax > slot[1]:
                slot[1] = vmax

    def _spill(self) -> None:
        assert self._exact is not None
        buckets: dict[tuple, list] = {}
        for value, count in self._exact.items():
            self._fold(buckets, self._bucket_key(value), count, value)
        self._exact, self._buckets = None, buckets

    def feed(self, value) -> None:
        """Absorb one observation."""
        self.count += 1
        if self._exact is not None:
            self._exact[value] = self._exact.get(value, 0) + 1
            if len(self._exact) > SKETCH_EXACT_LIMIT:
                self._spill()
            return
        assert self._buckets is not None
        self._fold(self._buckets, self._bucket_key(value), 1, value)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in (commutative, like feeding its values)."""
        if other._exact is not None and self._exact is not None:
            for value, count in other._exact.items():
                self._exact[value] = self._exact.get(value, 0) + count
            if len(self._exact) > SKETCH_EXACT_LIMIT:
                self._spill()
        elif other._exact is not None:
            for value, count in other._exact.items():
                self._fold(self._buckets, self._bucket_key(value), count, value)  # type: ignore[arg-type]
        else:
            if self._exact is not None:
                self._spill()
            for key, (count, vmax) in other._buckets.items():  # type: ignore[union-attr]
                self._fold(self._buckets, key, count, vmax)  # type: ignore[arg-type]
        self.count += other.count

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile (q in [0, 100]) of everything fed so far."""
        if self.count == 0:
            raise SchemaError("quantile of an empty sketch")
        if not 0.0 <= q <= 100.0:
            raise SchemaError(f"quantile q must be in [0, 100], got {q}")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        if self._exact is not None:
            for value in sorted(self._exact):
                seen += self._exact[value]
                if seen >= rank:
                    return value
        else:
            for key in sorted(self._buckets):  # type: ignore[arg-type]
                count, vmax = self._buckets[key]  # type: ignore[index]
                seen += count
                if seen >= rank:
                    return vmax
        raise AssertionError("rank exceeded sketch population")  # pragma: no cover


class RunningStats:
    """Bounded replacement for a materialized per-group value list.

    Running count/min/max, an exactly-rounded sum — plain integer
    arithmetic when ``floats=False`` (the bit-count columns), Shewchuk
    partial sums (the ``math.fsum`` algorithm, exactly rounded and
    therefore order-independent) when ``floats=True`` — and a
    :class:`QuantileSketch` for p95.  Float columns coerce every
    observation to ``float`` so equal int/float observations cannot
    produce order-dependent JSON spellings.
    """

    __slots__ = ("count", "_min", "_max", "_floats", "_int_total",
                 "_partials", "sketch")

    def __init__(self, *, floats: bool = False) -> None:
        self.count = 0
        self._min = self._max = None
        self._floats = floats
        self._int_total = 0
        self._partials: list[float] = []
        self.sketch = QuantileSketch()

    def _add_exact(self, x: float) -> None:
        # Shewchuk's error-free transformation: fold `x` into the
        # non-overlapping partials so their sum stays exact.
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def feed(self, value) -> None:
        """Absorb one observation."""
        if self._floats:
            value = float(value)
            self._add_exact(value)
        else:
            self._int_total += value
        self.count += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        self.sketch.feed(value)

    def merge(self, other: "RunningStats") -> None:
        """Fold another column in (same ``floats`` mode)."""
        if other.count == 0:
            return
        if self._floats:
            for p in other._partials:
                self._add_exact(p)
        else:
            self._int_total += other._int_total
        self.count += other.count
        if self._min is None or (other._min is not None and other._min < self._min):
            self._min = other._min
        if self._max is None or (other._max is not None and other._max > self._max):
            self._max = other._max
        self.sketch.merge(other.sketch)

    def stats(self) -> dict:
        """``{count, min, mean, max, p95}`` of everything fed."""
        if self.count == 0:
            raise SchemaError("stats of an empty column")
        total = math.fsum(self._partials) if self._floats else self._int_total
        return {
            "count": self.count,
            "min": self._min,
            "mean": round(total / self.count, _PRECISION),
            "max": self._max,
            "p95": self.sketch.quantile(95.0),
        }


def normalized_bits(record: Mapping) -> float | None:
    """``max_message_bits / (k² log₂ n)`` for one record (Lemma 2 units).

    ``k`` is the protocol's ``k`` parameter (1 when the protocol has none),
    ``n`` the spec size.  ``None`` when the normalization is undefined
    (``n < 2``) or the run produced no message bits to normalize.
    """
    spec = record["spec"]
    n = spec["n"]
    if n < 2:
        return None
    k = spec["protocol_params"].get("k", 1)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        return None
    bits = record["result"]["max_message_bits"]
    if bits == 0:
        # Nothing was measured (failed runs report 0 bits) — a zero here
        # would drag the group mean toward 0 and flatten the diagnostic.
        return None
    return round(bits / (k * k * math.log2(n)), _PRECISION)


def _fault_label(spec: Mapping) -> str:
    f = spec["faults"]
    if f is None:
        return "none"
    return (f"drop={f['drop']},dup={f['duplicate']},"
            f"flip={f['flip']},seed={f['seed']}")


def _axis_value(record: Mapping, axis: str):
    if axis == "faults":
        return _fault_label(record["spec"])
    return record["spec"][axis]


def _sort_key(value) -> tuple:
    # Axes can mix types across groups (e.g. budget_bits int/None); sort
    # by type class first so the comparison never raises, numerically
    # within numbers so n=16 precedes n=128.
    if isinstance(value, bool):
        return ("bool", 0, str(value))
    if isinstance(value, (int, float)):
        return ("number", value, "")
    return (type(value).__name__, 0, str(value))


class _GroupState:
    """All bounded state for one group — shared by the batch and
    incremental paths, which is what makes their outputs equal by
    construction."""

    __slots__ = ("runs", "statuses", "fault_events", "exact_true",
                 "exact_false", "max_bits", "total_bits", "norms", "walls")

    def __init__(self) -> None:
        self.runs = 0
        self.statuses: dict[str, int] = {}
        self.fault_events = {"dropped": 0, "duplicated": 0, "flipped": 0}
        self.exact_true = self.exact_false = 0
        self.max_bits = RunningStats()
        self.total_bits = RunningStats()
        self.norms = RunningStats(floats=True)
        self.walls = RunningStats(floats=True)

    def feed(self, record: Mapping) -> None:
        res = record["result"]
        self.runs += 1
        self.statuses[res["status"]] = self.statuses.get(res["status"], 0) + 1
        for name in self.fault_events:
            self.fault_events[name] += res["faults"][name]
        if res["exact"] is True:
            self.exact_true += 1
        elif res["exact"] is False:
            self.exact_false += 1
        self.max_bits.feed(res["max_message_bits"])
        self.total_bits.feed(res["total_message_bits"])
        norm = normalized_bits(record)
        if norm is not None:
            self.norms.feed(norm)
        wall = record["timing"].get("wall_seconds")
        if isinstance(wall, (int, float)) and not isinstance(wall, bool):
            self.walls.feed(wall)

    def finalize(self, key: tuple, by: Sequence[str],
                 *, include_timing: bool) -> dict:
        checked = self.exact_true + self.exact_false
        group = {
            "group": dict(zip(by, key)),
            "runs": self.runs,
            "statuses": dict(sorted(self.statuses.items())),
            "exact": {
                "true": self.exact_true,
                "false": self.exact_false,
                "checked": checked,
                "rate": round(self.exact_true / checked, _PRECISION) if checked else None,
            },
            "fault_events": dict(self.fault_events),
            "max_message_bits": self.max_bits.stats(),
            "total_message_bits": self.total_bits.stats(),
            "bits_per_k2_log_n": self.norms.stats() if self.norms.count else None,
        }
        if include_timing:
            group["wall_seconds"] = self.walls.stats() if self.walls.count else None
        return group


class Aggregator:
    """Incremental group-by aggregation: feed records as shards land.

    The maintained-state counterpart of :func:`aggregate` — the serve
    ``/summary`` endpoint and ``repro report`` feed every durable
    record once and snapshot :meth:`groups` on demand, instead of
    re-scanning the stream per question.  Because all group state is
    order-independent (see the module docstring), the snapshot after
    feeding any interleaving of the shard streams is bit-for-bit the
    batch result over the merged file.
    """

    def __init__(
        self,
        *,
        by: Sequence[str] = DEFAULT_AXES,
        include_timing: bool = False,
    ) -> None:
        by = tuple(by)
        if not by:
            raise SchemaError("aggregate needs at least one group-by axis")
        unknown = [a for a in by if a not in GROUPABLE_AXES]
        if unknown:
            raise SchemaError(
                f"unknown group-by axis {unknown}; known: {', '.join(GROUPABLE_AXES)}"
            )
        self.by = by
        self.include_timing = include_timing
        self.records = 0
        self._groups: dict[tuple, _GroupState] = {}

    def feed(self, record: Mapping) -> None:
        """Absorb one validated record."""
        key = tuple(_axis_value(record, a) for a in self.by)
        state = self._groups.get(key)
        if state is None:
            state = self._groups[key] = _GroupState()
        state.feed(record)
        self.records += 1

    def feed_many(self, records: Iterable[Mapping]) -> None:
        for record in records:
            self.feed(record)

    def groups(self) -> list[dict]:
        """Snapshot the aggregated groups (non-destructive, repeatable)."""
        if not self._groups:
            raise SchemaError("aggregate over zero records")
        return [
            self._groups[key].finalize(
                key, self.by, include_timing=self.include_timing
            )
            for key in sorted(
                self._groups, key=lambda k: tuple(_sort_key(v) for v in k)
            )
        ]


def aggregate(
    records: Iterable[Mapping],
    *,
    by: Sequence[str] = DEFAULT_AXES,
    include_timing: bool = False,
) -> list[dict]:
    """Group records by spec axes and summarize each group.

    Returns one dict per group, in sorted group-key order::

        {"group": {axis: value, ...},
         "runs": 7, "statuses": {"ok": 7},
         "exact": {"true": 5, "false": 0, "checked": 5, "rate": 1.0},
         "fault_events": {"dropped": 0, "duplicated": 0, "flipped": 0},
         "max_message_bits": {...stats...},
         "total_message_bits": {...stats...},
         "bits_per_k2_log_n": {...stats...} | None,
         "wall_seconds": {...stats...}}            # only with include_timing

    where each ``{...stats...}`` is a :meth:`RunningStats.stats` dict.

    ``by`` may name any of the spec axes (plus the synthetic ``faults``
    label); an unknown axis raises :class:`~repro.errors.SchemaError`.
    The batch convenience over :class:`Aggregator`: one pass, bounded
    per-group state, never the record dicts.
    """
    agg = Aggregator(by=by, include_timing=include_timing)
    agg.feed_many(records)
    return agg.groups()


def aggregate_table(
    groups: Sequence[Mapping],
    by: Sequence[str],
    *,
    title: str = "campaign report",
    include_timing: bool = False,
) -> tuple[str, list[str], list[list]]:
    """Render aggregated groups as ``(title, headers, rows)``.

    The shape :func:`repro.analysis.tables.format_table` consumes — the
    results layer and the experiment harness share one table pipeline.
    """
    headers = list(by) + [
        "runs", "ok", "viol", "err", "exact",
        "max bits (mean)", "max bits (p95)", "total bits (mean)",
        "bits/(k^2 lg n)",
    ]
    if include_timing:
        headers.append("wall s (mean)")
    rows: list[list] = []
    for g in groups:
        statuses = g["statuses"]
        exact = g["exact"]
        row = [g["group"][a] for a in by] + [
            g["runs"],
            statuses.get("ok", 0),
            statuses.get("violation", 0),
            statuses.get("error", 0),
            f"{exact['true']}/{exact['checked']}" if exact["checked"] else "-",
            g["max_message_bits"]["mean"],
            g["max_message_bits"]["p95"],
            g["total_message_bits"]["mean"],
            g["bits_per_k2_log_n"]["mean"] if g["bits_per_k2_log_n"] else "-",
        ]
        if include_timing:
            wall = g.get("wall_seconds")
            row.append(wall["mean"] if wall else "-")
        rows.append(row)
    return title, headers, rows
