"""Framing for tuple messages.

Theorems 2 and 3 have each node send a *pair* or *triple* of Γ-messages as
its Δ-message.  A :class:`~repro.model.message.Message` is raw bits, so the
components need self-delimiting framing to be recoverable: each component is
prefixed with ``length + 1`` in Elias delta, the one variable-length code in
the library (``O(log length)`` bits, so the overhead preserves frugality — a
frugal Γ gives Δ-messages of ``c·k(n) + O(log log n)`` bits, matching the
paper's "twice/three times as big" up to the additive framing term, which
the experiments report as "Δ bits").
"""

from __future__ import annotations

from repro.bits.reader import BitReader
from repro.bits.writer import BitWriter
from repro.errors import BitstreamError, DecodeError
from repro.model.message import Message

__all__ = ["pack_messages", "unpack_messages"]


def _write_delta(w: BitWriter, value: int) -> None:
    """Append the Elias delta code of ``value >= 1``: a part's length prefix.

    The code is the gamma code of ``nb = value.bit_length()`` (``nb`` in
    ``2·nb.bit_length() - 1`` bits, i.e. its leading zeros spell its width)
    followed by ``value``'s ``nb - 1`` bits below the leading one.
    """
    nb = value.bit_length()
    w.write_bits(nb, 2 * nb.bit_length() - 1)
    w.write_bits(value ^ (1 << (nb - 1)), nb - 1)


def _read_delta(r: BitReader) -> int:
    """Consume one Elias delta code word from ``r`` and return its value."""
    zeros = 0
    while not r.read_bit():
        zeros += 1
    nb = (1 << zeros) | r.read_bits(zeros)
    low = r.read_bits(nb - 1)  # underflows before a corrupt nb is ever shifted
    return (1 << (nb - 1)) | low


def pack_messages(parts: list[Message]) -> Message:
    """Concatenate messages with per-part delta-coded length prefixes."""
    w = BitWriter()
    for part in parts:
        _write_delta(w, part.bits + 1)  # +1: delta encodes >= 1
        w.write_bits(part.acc, part.bits)
    return Message.from_writer(w)


def unpack_messages(msg: Message, count: int) -> list[Message]:
    """Recover exactly ``count`` packed messages; strict framing."""
    r = msg.reader()
    parts: list[Message] = []
    try:
        for _ in range(count):
            nbits = _read_delta(r) - 1
            parts.append(Message(r.read_bits(nbits), nbits))
        r.expect_exhausted()
    except BitstreamError as exc:
        raise DecodeError(f"malformed packed message: {exc}") from exc
    return parts
