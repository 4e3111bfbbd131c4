"""Cursor-based bit stream reader, the dual of :class:`~repro.bits.writer.BitWriter`."""

from __future__ import annotations

from repro.errors import BitstreamUnderflow, CodecError

__all__ = ["BitReader"]


class BitReader:
    """Reads bits MSB-first from ``(acc, nbits)`` as returned by :meth:`BitWriter.to_int`."""

    __slots__ = ("_acc", "_nbits", "_pos")

    def __init__(self, acc: int, nbits: int) -> None:
        if nbits < 0 or acc >> nbits:
            raise CodecError(f"value does not fit in {nbits} bits")
        self._acc = acc
        self._nbits = nbits
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Bits left to read."""
        return self._nbits - self._pos

    def read_bit(self) -> int:
        """Read and return the next bit."""
        return self.read_bits(1)

    def read_bits(self, width: int) -> int:
        """Read the next ``width`` bits as a non-negative integer."""
        if width < 0:
            raise CodecError(f"width must be >= 0, got {width}")
        if width > self.remaining:
            raise BitstreamUnderflow(
                f"requested {width} bits but only {self.remaining} remain"
            )
        shift = self._nbits - self._pos - width
        value = (self._acc >> shift) & ((1 << width) - 1)
        self._pos += width
        return value

    def expect_exhausted(self) -> None:
        """Raise :class:`CodecError` unless every bit has been consumed.

        Decoders call this to catch framing bugs: a well-formed message is
        read exactly once with nothing left over.
        """
        if self.remaining:
            raise CodecError(f"{self.remaining} unread bits remain in stream")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitReader(pos={self._pos}, nbits={self._nbits})"
