"""Append-only bit stream builder.

A :class:`BitWriter` accumulates bits most-significant-bit first into an
arbitrary-precision integer.  This is the fastest pure-Python representation
for the write-once / read-once messages exchanged in the referee model:
appending ``w`` bits is one shift and one or, and the finished stream
converts to bytes in a single call.
"""

from __future__ import annotations

from repro.errors import CodecError

__all__ = ["BitWriter"]


class BitWriter:
    """Accumulates bits MSB-first; the unit of message construction.

    Example
    -------
    >>> w = BitWriter()
    >>> w.write_bits(0b101, 3)
    >>> w.write_bit(1)
    >>> len(w)
    4
    >>> w.to_bytes().hex()
    'b0'
    """

    __slots__ = ("_acc", "_nbits")

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0

    def __len__(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise CodecError(f"bit must be 0 or 1, got {bit!r}")
        self._acc = (self._acc << 1) | bit
        self._nbits += 1

    def write_bits(self, value: int, width: int) -> None:
        """Append ``value`` as exactly ``width`` bits, MSB first.

        ``value`` must be a non-negative integer fitting in ``width`` bits.
        ``width == 0`` is allowed only for ``value == 0`` and appends nothing.
        """
        if width < 0:
            raise CodecError(f"width must be >= 0, got {width}")
        if value < 0:
            raise CodecError(f"value must be >= 0, got {value}")
        if value >> width:
            raise CodecError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._nbits += width

    def write_many(self, fields) -> None:
        """Append ``(value, width)`` pairs in a single pass, MSB first.

        Bit-identical to calling :meth:`write_bits` per pair, but the
        (arbitrarily large) accumulated stream is never shifted per field:
        fields fold into a small bounded chunk, and only full chunks are
        spliced onto the stream — packing ``k`` fields into an ``N``-bit
        message costs ``O(N²/chunk + k)`` bit-copies instead of the
        ``O(N·k)`` of per-field appends.  This is the encoder hot path for
        sketch messages (rounds × levels × 3 counters each).  Validation
        failures raise before the writer is touched, so a rejected batch
        never leaves a half-written stream.
        """
        parts: list[tuple[int, int]] = []
        acc = 0
        nbits = 0
        for value, width in fields:
            if width < 0:
                raise CodecError(f"width must be >= 0, got {width}")
            if value < 0:
                raise CodecError(f"value must be >= 0, got {value}")
            if value >> width:
                raise CodecError(f"value {value} does not fit in {width} bits")
            acc = (acc << width) | value
            nbits += width
            if nbits >= 8192:
                parts.append((acc, nbits))
                acc = 0
                nbits = 0
        parts.append((acc, nbits))
        for chunk, chunk_bits in parts:
            self._acc = (self._acc << chunk_bits) | chunk
            self._nbits += chunk_bits

    def to_int(self) -> tuple[int, int]:
        """Return ``(acc, nbits)`` — the raw integer and the bit count."""
        return self._acc, self._nbits

    def to_bytes(self) -> bytes:
        """Return the stream as bytes, zero-padded on the right to a byte boundary."""
        nbytes = (self._nbits + 7) // 8
        pad = nbytes * 8 - self._nbits
        return (self._acc << pad).to_bytes(nbytes, "big")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitWriter(bits={self._nbits})"
