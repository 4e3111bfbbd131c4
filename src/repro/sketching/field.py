"""Arithmetic in GF(p) for p = 2^61 - 1 (Mersenne), plus seeded parameter derivation.

Fingerprints need a field large enough that a forged one-sparse claim
collides with probability ~ n² / p ≈ 2^{-40} at the sizes we simulate.
The Mersenne prime keeps reduction cheap and every counter under 61 bits —
which is also what the per-message bit accounting serializes.

Randomness discipline: the model gives all parties a *shared* random string
(public coins).  We derive every hash/fingerprint parameter deterministically
from a seed via splitmix64, so a node's local function and the referee's
global function agree on parameters without communicating them.
"""

from __future__ import annotations

__all__ = [
    "MERSENNE61",
    "fadd",
    "fmul",
    "fpow",
    "splitmix64",
    "derive_params",
]

MERSENNE61 = (1 << 61) - 1


def fadd(a: int, b: int) -> int:
    """Addition mod 2^61 - 1."""
    return (a + b) % MERSENNE61


def fmul(a: int, b: int) -> int:
    """Multiplication mod 2^61 - 1."""
    return (a * b) % MERSENNE61


def fpow(base: int, exp: int) -> int:
    """Exponentiation mod 2^61 - 1."""
    return pow(base, exp, MERSENNE61)


def splitmix64(x: int) -> int:
    """The splitmix64 mixing function — deterministic, platform-independent."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def derive_params(seed: int, *tags: int) -> int:
    """A 64-bit pseudo-random value bound to ``(seed, *tags)``.

    All parties call this with the same arguments (public randomness), e.g.
    ``derive_params(seed, which, n, round)`` for an L0 sampler's level-hash
    coefficients and fingerprint base.
    """
    x = splitmix64(seed & 0xFFFFFFFFFFFFFFFF)
    for t in tags:
        x = splitmix64(x ^ (t & 0xFFFFFFFFFFFFFFFF))
    return x

