"""Unit tests for BitWriter / BitReader round-trips and framing errors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits import BitReader, BitWriter
from repro.errors import BitstreamUnderflow, CodecError


class TestBitWriter:
    def test_empty(self):
        w = BitWriter()
        assert len(w) == 0
        assert w.to_bytes() == b""
        assert w.to_int() == (0, 0)

    def test_single_bits(self):
        w = BitWriter()
        for b in (1, 0, 1, 1):
            w.write_bit(b)
        assert len(w) == 4
        assert w.to_int() == (0b1011, 4)

    def test_write_bits_msb_first(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(0b01, 2)
        assert w.to_int() == (0b10101, 5)

    def test_to_bytes_pads_right(self):
        w = BitWriter()
        w.write_bits(0b1011, 4)
        assert w.to_bytes() == bytes([0b10110000])

    @pytest.mark.parametrize("nbits", [1, 7, 8, 9, 15, 16, 17])
    def test_to_bytes_length_and_padding(self, nbits):
        w = BitWriter()
        w.write_bits((1 << nbits) - 1, nbits)
        data = w.to_bytes()
        assert len(data) == (nbits + 7) // 8
        pad = len(data) * 8 - nbits
        assert int.from_bytes(data, "big") == ((1 << nbits) - 1) << pad

    def test_zero_width_write(self):
        w = BitWriter()
        w.write_bits(0, 0)
        assert len(w) == 0

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(CodecError):
            w.write_bits(4, 2)

    def test_negative_value_rejected(self):
        w = BitWriter()
        with pytest.raises(CodecError):
            w.write_bits(-1, 4)

    def test_negative_width_rejected(self):
        w = BitWriter()
        with pytest.raises(CodecError):
            w.write_bits(0, -1)

    def test_bad_bit_rejected(self):
        w = BitWriter()
        with pytest.raises(CodecError):
            w.write_bit(2)


class TestBitReader:
    def test_reads_back_bits(self):
        w = BitWriter()
        w.write_bits(0b110101, 6)
        r = BitReader(*w.to_int())
        assert r.read_bits(3) == 0b110
        assert r.read_bit() == 1
        assert r.read_bits(2) == 0b01
        r.expect_exhausted()

    def test_underflow(self):
        r = BitReader(0b1, 1)
        r.read_bit()
        with pytest.raises(BitstreamUnderflow):
            r.read_bit()

    def test_expect_exhausted_raises(self):
        r = BitReader(0b10, 2)
        r.read_bit()
        with pytest.raises(CodecError):
            r.expect_exhausted()

    def test_int_requires_nbits(self):
        with pytest.raises(TypeError):
            BitReader(5)

    @pytest.mark.parametrize("acc, nbits", [(8, 3), (1, 0), (0, -1), (-1, 4)])
    def test_int_value_must_fit(self, acc, nbits):
        with pytest.raises(CodecError):
            BitReader(acc, nbits)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**64), st.integers(min_value=0, max_value=70))))
def test_roundtrip_many_fields(fields):
    """Property: any sequence of (value, width) pairs with value < 2^width round-trips."""
    w = BitWriter()
    clipped = [(v & ((1 << width) - 1) if width else 0, width) for v, width in fields]
    for v, width in clipped:
        w.write_bits(v, width)
    r = BitReader(*w.to_int())
    for v, width in clipped:
        assert r.read_bits(width) == v
    r.expect_exhausted()


@given(st.binary(max_size=64))
def test_bytes_roundtrip(data):
    """Property: to_bytes is the identity on whole-byte streams."""
    w = BitWriter()
    for byte in data:
        w.write_bits(byte, 8)
    assert w.to_bytes() == data
    r = BitReader(*w.to_int())
    assert bytes(r.read_bits(8) for _ in data) == data
