"""Integer codes over bit streams.

Each code is a stateless object with ``encode(writer, value)`` and
``decode(reader) -> value``.  Fixed-width codes carry their width; the
self-delimiting codes (unary, Elias gamma/delta, varint) need no external
framing.  No protocol message uses them: Algorithm 3's power sums are
fixed-width fields (``b_p`` takes ``(p+1)·w`` bits), and the one code in use
is Elias delta, which frames the reductions' tuple messages
(:mod:`repro.reductions.framing`).

The codes are deliberately classical: the paper measures message size in
bits, so the library uses textbook codes whose lengths have closed forms
(see :mod:`repro.bits.sizing`) that the experiments can check measured
lengths against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.bits.reader import BitReader
from repro.bits.writer import BitWriter
from repro.errors import CodecError

__all__ = [
    "IntegerCode",
    "FixedWidthCode",
    "UnaryCode",
    "EliasGammaCode",
    "EliasDeltaCode",
    "VarintCode",
]


class IntegerCode(ABC):
    """Interface for integer <-> bit-stream codes."""

    @abstractmethod
    def encode(self, writer: BitWriter, value: int) -> None:
        """Append the code word for ``value`` to ``writer``."""

    @abstractmethod
    def decode(self, reader: BitReader) -> int:
        """Consume one code word from ``reader`` and return its value."""


class FixedWidthCode(IntegerCode):
    """Non-negative integers in exactly ``width`` bits.

    The workhorse code: vertex IDs use ``FixedWidthCode(id_width(n))``.
    """

    __slots__ = ("width",)

    def __init__(self, width: int) -> None:
        if width < 0:
            raise CodecError(f"width must be >= 0, got {width}")
        self.width = width

    def encode(self, writer: BitWriter, value: int) -> None:
        writer.write_bits(value, self.width)

    def decode(self, reader: BitReader) -> int:
        return reader.read_bits(self.width)

    def __repr__(self) -> str:
        return f"FixedWidthCode({self.width})"


class UnaryCode(IntegerCode):
    """``value`` zeros followed by a one; encodes integers >= 0."""

    def encode(self, writer: BitWriter, value: int) -> None:
        if value < 0:
            raise CodecError(f"unary encodes integers >= 0, got {value}")
        writer.write_bits(1, value + 1)

    def decode(self, reader: BitReader) -> int:
        count = 0
        while reader.read_bit() == 0:
            count += 1
        return count


class EliasGammaCode(IntegerCode):
    """Elias gamma: unary length prefix then the value's low bits; integers >= 1."""

    def encode(self, writer: BitWriter, value: int) -> None:
        if value < 1:
            raise CodecError(f"Elias gamma encodes integers >= 1, got {value}")
        nb = value.bit_length()
        writer.write_bits(0, nb - 1)
        writer.write_bits(value, nb)

    def decode(self, reader: BitReader) -> int:
        zeros = 0
        while reader.read_bit() == 0:
            zeros += 1
        value = 1
        if zeros:
            value = (1 << zeros) | reader.read_bits(zeros)
        return value


class EliasDeltaCode(IntegerCode):
    """Elias delta: gamma-coded length then the value's low bits; integers >= 1.

    Asymptotically ``log v + 2 log log v`` bits — used for the power sums in
    Algorithm 3 so a degree-0 vertex does not pay for k full-width zeros.
    """

    _gamma = EliasGammaCode()

    def encode(self, writer: BitWriter, value: int) -> None:
        if value < 1:
            raise CodecError(f"Elias delta encodes integers >= 1, got {value}")
        nb = value.bit_length()
        self._gamma.encode(writer, nb)
        writer.write_bits(value & ((1 << (nb - 1)) - 1), nb - 1)

    def decode(self, reader: BitReader) -> int:
        nb = self._gamma.decode(reader)
        if nb == 1:
            return 1
        return (1 << (nb - 1)) | reader.read_bits(nb - 1)


class VarintCode(IntegerCode):
    """LEB128: 7 data bits per byte, high bit is the continuation flag; >= 0."""

    def encode(self, writer: BitWriter, value: int) -> None:
        if value < 0:
            raise CodecError(f"varint encodes integers >= 0, got {value}")
        while True:
            group = value & 0x7F
            value >>= 7
            if value:
                writer.write_bits(0x80 | group, 8)
            else:
                writer.write_bits(group, 8)
                return

    def decode(self, reader: BitReader) -> int:
        value = 0
        shift = 0
        while True:
            byte = reader.read_bits(8)
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 10_000:
                raise CodecError("varint too long (corrupt stream?)")
