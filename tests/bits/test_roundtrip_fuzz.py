"""Seeded-fuzz round-trip properties for the bit layer.

Random write programs of single bits and fixed-width fields over
``BitWriter``/``BitReader``, replayed from fixed seeds (200+ cases per
seed) so a failure is a deterministic repro, not a flake.  The invariant under test is the
paper's resource model itself: every message is written once, read once,
bit-exactly, with the length accounting agreeing at each step.
"""

import random

import pytest

from repro.bits import BitReader, BitWriter
from repro.errors import BitstreamUnderflow, CodecError

SEEDS = (0, 1, 2, 3, 4)
CASES_PER_SEED = 200


def _random_program(rng):
    """A list of (kind, payload) write ops with their expected read-back."""
    ops = []
    for _ in range(rng.randrange(1, 20)):
        if rng.randrange(2):
            ops.append(("bit", rng.randrange(2)))
        else:
            width = rng.randrange(0, 65)
            value = rng.randrange(1 << width) if width else 0
            ops.append(("bits", (value, width)))
    return ops


def _write(ops):
    writer = BitWriter()
    for kind, payload in ops:
        if kind == "bit":
            writer.write_bit(payload)
        else:
            writer.write_bits(*payload)
    return writer


def _read_back(reader, ops):
    out = []
    for kind, payload in ops:
        if kind == "bit":
            out.append(("bit", reader.read_bit()))
        else:
            _, width = payload
            out.append(("bits", (reader.read_bits(width), width)))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_roundtrip(seed):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        ops = _random_program(rng)
        writer = _write(ops)
        acc, nbits = writer.to_int()
        assert nbits == len(writer)
        assert len(writer.to_bytes()) == (nbits + 7) // 8
        reader = BitReader(acc, nbits)
        assert _read_back(reader, ops) == ops
        reader.expect_exhausted()


@pytest.mark.parametrize("seed", SEEDS)
def test_bytes_path_matches_int_path(seed):
    """``to_bytes`` is ``to_int`` left-aligned and zero-padded to whole bytes."""
    rng = random.Random(seed + 1000)
    for _ in range(CASES_PER_SEED):
        ops = _random_program(rng)
        writer = _write(ops)
        acc, nbits = writer.to_int()
        data = writer.to_bytes()
        pad = len(data) * 8 - nbits
        assert 0 <= pad < 8
        assert int.from_bytes(data, "big") == acc << pad
        reader = BitReader(int.from_bytes(data, "big") >> pad, nbits)
        assert _read_back(reader, ops) == ops
        reader.expect_exhausted()


@pytest.mark.parametrize("seed", SEEDS)
def test_sequential_writes_concatenate(seed):
    """Writing two programs in a row yields their concatenated bit strings."""
    rng = random.Random(seed + 2000)
    for _ in range(CASES_PER_SEED):
        left, right = _random_program(rng), _random_program(rng)
        left_acc, left_bits = _write(left).to_int()
        right_acc, right_bits = _write(right).to_int()
        assert _write(left + right).to_int() == (
            (left_acc << right_bits) | right_acc,
            left_bits + right_bits,
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_write_many_matches_write_bits(seed):
    """``write_many`` is bit-identical to per-field ``write_bits``, across its chunk size."""
    rng = random.Random(seed + 4000)
    for _ in range(CASES_PER_SEED // 10):
        fields = []
        for _ in range(rng.randrange(0, 400)):
            width = rng.randrange(0, 65)
            fields.append((rng.randrange(1 << width) if width else 0, width))
        batched, single = BitWriter(), BitWriter()
        batched.write_bits(1, 1)  # a non-empty prefix must be shifted, not overwritten
        single.write_bits(1, 1)
        batched.write_many(fields)
        for value, width in fields:
            single.write_bits(value, width)
        assert batched.to_int() == single.to_int()


@pytest.mark.parametrize("seed", SEEDS)
def test_underflow_is_always_detected(seed):
    rng = random.Random(seed + 3000)
    for _ in range(CASES_PER_SEED):
        ops = _random_program(rng)
        writer = _write(ops)
        acc, nbits = writer.to_int()
        reader = BitReader(acc, nbits)
        overshoot = rng.randrange(1, 10)
        with pytest.raises(BitstreamUnderflow):
            reader.read_bits(nbits + overshoot)
        # the failed read consumed nothing: the stream is still intact
        assert reader.remaining == nbits
        assert _read_back(reader, ops) == ops


class TestWidthEdgeCases:
    def test_zero_width_zero_value(self):
        writer = BitWriter()
        writer.write_bits(0, 0)
        assert len(writer) == 0
        assert BitReader(*writer.to_int()).read_bits(0) == 0

    def test_value_overflowing_width_rejected(self):
        writer = BitWriter()
        for value, width in ((1, 0), (2, 1), (1 << 8, 8), (1 << 63, 63)):
            with pytest.raises(CodecError):
                writer.write_bits(value, width)
        assert len(writer) == 0  # failed writes append nothing

    def test_negative_width_and_value_rejected(self):
        writer = BitWriter()
        with pytest.raises(CodecError):
            writer.write_bits(0, -1)
        with pytest.raises(CodecError):
            writer.write_bits(-1, 4)
        reader = BitReader(0, 0)
        with pytest.raises(CodecError):
            reader.read_bits(-1)

    def test_non_binary_bit_rejected(self):
        with pytest.raises(CodecError):
            BitWriter().write_bit(2)

    def test_empty_stream_reads_nothing(self):
        reader = BitReader(0, 0)
        assert reader.remaining == 0
        reader.expect_exhausted()
        with pytest.raises(BitstreamUnderflow):
            reader.read_bit()

    def test_leftover_bits_flagged(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        reader = BitReader(*writer.to_int())
        reader.read_bit()
        with pytest.raises(CodecError, match="unread bits"):
            reader.expect_exhausted()
