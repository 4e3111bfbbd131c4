"""Framing for tuple messages.

Theorems 2 and 3 have each node send a *pair* or *triple* of Γ-messages as
its Δ-message.  A :class:`~repro.model.message.Message` is raw bits, so the
components need self-delimiting framing to be recoverable: each component is
prefixed with its length coded in Elias delta (``O(log length)`` bits, so
the overhead preserves frugality — a frugal Γ gives Δ-messages of
``c·k(n) + O(log log n)`` bits, matching the paper's "twice/three times as
big" up to the additive framing term, which the experiments report).
"""

from __future__ import annotations

from repro.bits.codes import EliasDeltaCode
from repro.bits.writer import BitWriter
from repro.errors import BitstreamError, DecodeError
from repro.model.message import Message

__all__ = ["pack_messages", "unpack_messages"]

_delta = EliasDeltaCode()


def pack_messages(parts: list[Message]) -> Message:
    """Concatenate messages with per-part delta-coded length prefixes."""
    w = BitWriter()
    for part in parts:
        _delta.encode(w, part.bits + 1)  # +1: delta encodes >= 1
        w.write_bits(part.acc, part.bits)
    return Message.from_writer(w)


def unpack_messages(msg: Message, count: int) -> list[Message]:
    """Recover exactly ``count`` packed messages; strict framing."""
    r = msg.reader()
    parts: list[Message] = []
    try:
        for _ in range(count):
            nbits = _delta.decode(r) - 1
            parts.append(Message(r.read_bits(nbits), nbits))
        r.expect_exhausted()
    except BitstreamError as exc:
        raise DecodeError(f"malformed packed message: {exc}") from exc
    return parts
