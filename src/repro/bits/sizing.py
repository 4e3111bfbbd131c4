"""The width of every fixed-width field a protocol writes.

An ID in ``1..n`` costs ``id_width(n) = ceil(log2(n+1))`` bits, and a power
sum ``b_p <= n^{p+1}`` at most ``(p+1) · id_width(n)`` bits (Lemma 2); this
is the paper's ``log n`` unit of message size.
"""

from __future__ import annotations

from repro.errors import CodecError

__all__ = ["id_width"]


def id_width(n: int) -> int:
    """Width used throughout the library for a vertex ID in ``1..n``.

    IDs are stored as-is (not shifted to 0-based), so the width covers the
    value ``n`` itself.  This is the paper's ``log n`` unit.
    """
    if n < 1:
        raise CodecError(f"n must be >= 1, got {n}")
    return n.bit_length()
