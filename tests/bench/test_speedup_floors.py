"""Speedup floors: four optimized paths against their reference implementations.

Each pair runs an optimized path and a plain reference on the same
deterministic inputs:

* ``l0-update`` — AGM sketch updates and packing through
  :func:`repro.sketching.agm.encode` vs one plain ``L0Sampler`` a round;
* ``bits-pack`` — ``BitWriter.write_many`` vs one ``write_bits`` a field;
* ``aggregate-incremental`` — a polled summary from maintained
  ``Aggregator`` state vs re-aggregating from scratch at every poll;
* ``trace-overhead`` — a persisted forest campaign through
  :class:`repro.api.Session` with tracing off vs fully traced.  Its
  floor sits just under 1.0: tracing's off path must stay free.

Inputs come from :func:`~repro.sketching.field.splitmix64` chains, never
the global ``random`` module, so every op's ``(ops, bits, digest)`` is a
pure function of the code.  Both members of a pair must hit the same
pinned triple: a changed digest means an optimization changed *what* is
computed, not just how fast.  Each pair also takes a ``variant``: variant
0 builds the pinned inputs, and the others build fresh inputs on which
the two sides must still agree.

A floor is ``reference_min / optimized_min`` over :data:`REPEATS` timed
repeats of each side in one process.  The two sides are interleaved, and
each repeat alternates which side goes first, so a slow stretch of the
machine lands on both sides instead of on one.  A repeat lasts at least
:data:`MIN_SAMPLE_S` on the optimized side, and the garbage collector is
off while the clock runs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
from typing import Any

import pytest

from repro.api import Session
from repro.bits.writer import BitWriter
from repro.model.message import Message
from repro.model.referee import monotonic_clock
from repro.results.aggregate import Aggregator, aggregate
from repro.sketching.agm import Bank, derive_bank, encode
from repro.sketching.field import splitmix64
from repro.sketching.l0sampler import L0Sampler

_SEED = 0xBEC4E12011  # arbitrary fixed public seed for all inputs

#: Timed repeats per side; each side's minimum enters the ratio.
REPEATS = 15

#: Least wall time of one timed repeat of the optimized op, in seconds.
MIN_SAMPLE_S = 0.01

#: ``(ops, bits, digest)`` per op, one entry per side of each pair.
PINS = {
    "aggregate-incremental": (600, 0, "710a3d7f9bde4966"),
    "aggregate-incremental-naive": (600, 0, "710a3d7f9bde4966"),
    "bits-pack": (3000, 97000, "654fddff82df884a"),
    "bits-pack-naive": (3000, 97000, "654fddff82df884a"),
    "l0-update": (4000, 53578, "ef5a80e5ead145d1"),
    "l0-update-naive": (4000, 53578, "ef5a80e5ead145d1"),
    "trace-overhead": (6, 2400, "a01853d2e4075957"),
    "trace-overhead-naive": (6, 2400, "a01853d2e4075957"),
}

#: Least ``reference_min / optimized_min`` each pair must reach.
FLOORS = {
    "aggregate-incremental": 2.0,
    "bits-pack": 1.5,
    "l0-update": 1.5,
    "trace-overhead": 0.9,
}


def _digest(payload: Any) -> str:
    """Stable hash of a JSON-able deterministic result."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


# --------------------------------------------------------------------- #
# l0-update: L0 sketch updates + packing
# --------------------------------------------------------------------- #


def _l0_inputs(seed: int) -> list[tuple[Bank, list[tuple[int, int]]]]:
    """A splitmix-derived update stream over a one-round bank, in node-sized pieces.

    Each piece holds ``n - 1`` updates, a node's largest degree, so its
    counters fit the bank's fixed-width fields.
    """
    n = 96
    bank = derive_bank(n, seed, n, 1)
    m = bank.params[0].m
    count = 4000
    updates = []
    x = seed
    for _ in range(count):
        x = splitmix64(x)
        updates.append((x % m, 1 if x & 1 else -1))
    return [(bank, updates[i:i + n - 1]) for i in range(0, count, n - 1)]


def _ref_zigzag(x: int) -> int:
    return 2 * x if x >= 0 else -2 * x - 1


def _reference_encode(streams: list[tuple[Bank, list[tuple[int, int]]]]) -> Message:
    """One plain :class:`L0Sampler` per bank round, packed field by field."""
    fields = []
    for bank, updates in streams:
        w0, w1 = bank.widths
        for params in bank.params:
            sampler = L0Sampler(params)
            for index, delta in updates:
                sampler.update(index, delta)
            for c0, c1, c2 in sampler.counters():
                fields += [(_ref_zigzag(c0), w0), (_ref_zigzag(c1), w1), (c2, 61)]
    writer = BitWriter()
    writer.write_many(fields)
    return Message.from_writer(writer)


def _l0_pair(_tmp_path, variant):
    streams = _l0_inputs(_SEED ^ variant)
    ops = sum(len(updates) for _, updates in streams)

    def side(encode_streams):
        def op():
            message = encode_streams(streams)
            return ops, message.bits, _digest([hex(message.acc), message.bits])
        return op

    return side(encode), side(_reference_encode)


# --------------------------------------------------------------------- #
# bits-pack: bit packing
# --------------------------------------------------------------------- #


def _pack_fields(seed: int) -> list[tuple[int, int]]:
    """A sketch-message-shaped field stream: (w0, w1, 61)-bit triples."""
    fields = []
    x = seed ^ 0x5
    for i in range(3000):
        x = splitmix64(x)
        width = (12, 24, 61)[i % 3]
        fields.append((x & ((1 << width) - 1), width))
    return fields


def _bits_pair(_tmp_path, variant):
    fields = _pack_fields(_SEED ^ (variant << 8))

    def packed(writer):
        return len(fields), len(writer), _digest(writer.to_bytes().hex())

    def optimized():
        writer = BitWriter()
        writer.write_many(fields)
        return packed(writer)

    def reference():
        writer = BitWriter()
        for value, width in fields:
            writer.write_bits(value, width)
        return packed(writer)

    return optimized, reference


# --------------------------------------------------------------------- #
# aggregate-incremental: polled summaries
# --------------------------------------------------------------------- #

_AGG_POLLS = 16  # summary polls per simulated campaign


def _store_records(seed: int) -> list[dict]:
    """A splitmix-derived synthetic campaign, schema-shaped and JSON-able."""
    protocols = ("forest", "spanning_tree", "degeneracy")
    families = ("random_forest", "path")
    records = []
    x = seed
    for i in range(600):
        x = splitmix64(x)
        a = x
        x = splitmix64(x)
        b = x
        n = (16, 32, 64)[a % 3]
        records.append({
            "spec_version": 2,
            "spec": {
                "scenario": "bench", "family": families[b % 2], "n": n,
                "seed": i, "protocol": protocols[a % 3],
                "family_params": {}, "protocol_params": {},
                "budget_bits": None, "shuffle_delivery": False,
                "faults": None,
            },
            "result": {
                "status": ("ok", "ok", "ok", "violation")[b % 4],
                "output_kind": "graph",
                "output_digest": f"{a % (1 << 32):08x}",
                "exact": (True, False, None)[a % 3],
                "graph_n": n, "graph_m": n - 1,
                "max_message_bits": int(a % 4096),
                "total_message_bits": int(b % 100_000),
                "faults": {"dropped": 0, "duplicated": 0, "flipped": 0},
                "error": "",
            },
            "timing": {"wall_seconds": (a % 1000) / 1000.0},
            "cached": False,
        })
    return records


def _aggregate_pair(_tmp_path, variant):
    """The campaign's records land in chunks; every ``/summary`` poll
    answers with fresh groups."""
    records = _store_records(_SEED ^ variant)
    size = max(1, len(records) // _AGG_POLLS)
    chunks = [records[i:i + size] for i in range(0, len(records), size)]

    def optimized():
        agg = Aggregator(by=("protocol", "n"))
        for chunk in chunks:
            agg.feed_many(chunk)
            groups = agg.groups()
        return len(records), 0, _digest(groups)

    def reference():
        seen: list[dict] = []
        for chunk in chunks:
            seen.extend(chunk)
            groups = aggregate(seen, by=("protocol", "n"))
        return len(records), 0, _digest(groups)

    return optimized, reference


# --------------------------------------------------------------------- #
# trace-overhead: the tracing off path
# --------------------------------------------------------------------- #


def _trace_pair(tmp_path, variant):
    """The same persisted forest campaign, untraced and fully traced.

    Each run overwrites the previous streams in place.  The digest covers
    the records (spec content hashes, output digests and statuses), so
    parity also witnesses that tracing changes no record.
    """
    def side(name, trace):
        session = (Session(name)
                   .graphs("random_forest", n=20,
                           seeds=tuple(range(6 * variant, 6 * variant + 6)))
                   .protocol("forest")
                   .persist(tmp_path, use_cache=False)
                   .trace(trace))

        def op():
            records = session.run().records
            identity = sorted(
                (r.spec.content_hash(), r.output_digest, r.status) for r in records
            )
            bits = sum(r.total_message_bits for r in records)
            return len(records), bits, _digest(identity)
        return op

    return side("bench-untraced", False), side("bench-traced", True)


_PAIRS = {
    "aggregate-incremental": _aggregate_pair,
    "bits-pack": _bits_pair,
    "l0-update": _l0_pair,
    "trace-overhead": _trace_pair,
}


@pytest.fixture(params=sorted(_PAIRS))
def pair(request, tmp_path):
    """``(name, optimized, reference)``: two zero-argument ops on shared inputs."""
    return (request.param, *_PAIRS[request.param](tmp_path, 0))


def test_every_pair_has_a_floor_and_two_pins():
    assert set(FLOORS) == set(_PAIRS)
    assert set(PINS) == {n for p in _PAIRS for n in (p, f"{p}-naive")}


def test_both_sides_hit_the_pin_and_leave_global_rng_alone(pair):
    name, optimized, reference = pair
    random.seed(999)
    expected = [random.random() for _ in range(8)]
    random.seed(999)
    assert optimized() == PINS[name]
    assert reference() == PINS[f"{name}-naive"]
    assert [random.random() for _ in range(8)] == expected, \
        "global random state was consumed or reseeded"


@pytest.mark.parametrize("variant", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_PAIRS))
def test_both_sides_agree_off_the_pinned_inputs(name, variant, tmp_path):
    optimized, reference = _PAIRS[name](tmp_path, variant)
    fresh = optimized()
    assert fresh == reference()
    assert fresh != PINS[name]


def measured_ratio(optimized, reference) -> float:
    """``reference_min / optimized_min`` over interleaved timed repeats.

    One repeat runs each op as many times as the optimized op needs to
    fill :data:`MIN_SAMPLE_S` in an untimed warm-up call.  A sample of a
    few milliseconds lets one short fast stretch of a shared machine set
    a side's minimum alone.  The garbage collector is off while the
    clock runs, as in :mod:`timeit`: each op allocates the same objects
    every repeat, so a collection can land on the same side every time.
    """
    t0 = monotonic_clock()
    optimized()
    number = max(1, math.ceil(MIN_SAMPLE_S / (monotonic_clock() - t0)))
    reference()
    best = {optimized: float("inf"), reference: float("inf")}
    gc.collect()
    gc.disable()
    try:
        for i in range(REPEATS):
            for op in (optimized, reference) if i % 2 == 0 else (reference, optimized):
                t0 = monotonic_clock()
                for _ in range(number):
                    op()
                best[op] = min(best[op], monotonic_clock() - t0)
    finally:
        gc.enable()
    return best[reference] / best[optimized]


def test_speedup_floor(pair):
    name, optimized, reference = pair
    ratio = measured_ratio(optimized, reference)
    assert ratio >= FLOORS[name], (
        f"{name}: reference/optimized ratio {ratio:.2f} is below the "
        f"floor {FLOORS[name]}")
