"""Closed-form bit-length helpers.

These are the arithmetic facts behind the paper's frugality accounting:
an ID in ``1..n`` costs ``ceil(log2(n+1))`` bits fixed-width, a power sum
``b_p <= n^{p+1}`` costs at most ``(p+1) * ceil(log2(n+1))`` bits, and so on
(Lemma 2).  :func:`id_width` sizes every fixed-width field the protocols
write; the code-length helpers are the closed forms of
:mod:`repro.bits.codes`, which the tests check measured lengths against.
"""

from __future__ import annotations

from repro.errors import CodecError

__all__ = [
    "bit_length",
    "fixed_width_for",
    "id_width",
    "elias_gamma_length",
    "elias_delta_length",
    "varint_length",
]


def bit_length(value: int) -> int:
    """Bits in the binary representation of ``value`` (0 -> 0, 1 -> 1, 5 -> 3)."""
    if value < 0:
        raise CodecError(f"value must be >= 0, got {value}")
    return value.bit_length()


def fixed_width_for(max_value: int) -> int:
    """Width needed to store any integer in ``0..max_value`` fixed-width.

    >>> fixed_width_for(0), fixed_width_for(1), fixed_width_for(255), fixed_width_for(256)
    (0, 1, 8, 9)
    """
    if max_value < 0:
        raise CodecError(f"max_value must be >= 0, got {max_value}")
    return max_value.bit_length()


def id_width(n: int) -> int:
    """Width used throughout the library for a vertex ID in ``1..n``.

    IDs are stored as-is (not shifted to 0-based), so the width covers the
    value ``n`` itself.  This is the paper's ``log n`` unit.
    """
    if n < 1:
        raise CodecError(f"n must be >= 1, got {n}")
    return n.bit_length()


def elias_gamma_length(value: int) -> int:
    """Length in bits of the Elias gamma code of ``value >= 1``."""
    if value < 1:
        raise CodecError(f"Elias gamma encodes integers >= 1, got {value}")
    return 2 * value.bit_length() - 1


def elias_delta_length(value: int) -> int:
    """Length in bits of the Elias delta code of ``value >= 1``."""
    if value < 1:
        raise CodecError(f"Elias delta encodes integers >= 1, got {value}")
    nb = value.bit_length()
    return nb + 2 * nb.bit_length() - 2


def varint_length(value: int) -> int:
    """Length in bits of the LEB128 varint code of ``value >= 0`` (7 data bits/byte)."""
    if value < 0:
        raise CodecError(f"varint encodes integers >= 0, got {value}")
    if value == 0:
        return 8
    groups = (value.bit_length() + 6) // 7
    return 8 * groups
