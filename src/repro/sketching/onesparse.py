"""Exact one-sparse recovery.

A signed integer vector ``a`` (indexed by edge slots ``0..m-1``) is
*one-sparse* when exactly one coordinate is nonzero.  The classical
three-counter sketch recovers it exactly:

* ``c0 = Σ_e a_e``              (total weight)
* ``c1 = Σ_e e · a_e``          (index-weighted)
* ``c2 = Σ_e a_e · z^{e+1}``    (fingerprint mod p, random base z)

If ``a`` is one-sparse with support ``{i}`` then ``c1/c0 = i`` and
``c2 = c0 · z^{i+1}``.  The fingerprint check rejects non-one-sparse vectors
except with probability ``<= m/p`` (a nonzero polynomial of degree ``m`` in
``z`` has at most ``m`` roots) — including the treacherous ``c0 = 0`` cases
that the first two counters alone cannot see.

The sketch is *linear*: :meth:`OneSparseSketch.merged` adds counter-wise, so
component sums in the AGM protocol are sketch sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.sketching.field import MERSENNE61, fadd, fmul, fpow

__all__ = ["OneSparseSketch", "OneSparseResult", "RecoveryStatus"]


class RecoveryStatus(Enum):
    """Outcome of a recovery attempt."""

    ZERO = "zero"            # the sketched vector is (whp) all-zero
    ONE_SPARSE = "one-sparse"  # exactly one nonzero coordinate, recovered
    DENSE = "dense"          # more than one nonzero coordinate (whp)


@dataclass(frozen=True)
class OneSparseResult:
    """Recovery outcome; ``index``/``weight`` populated iff one-sparse."""

    status: RecoveryStatus
    index: int | None = None
    weight: int | None = None


class OneSparseSketch:
    """The three-counter sketch of a signed vector over edge slots ``0..m-1``."""

    __slots__ = ("m", "z", "c0", "c1", "c2")

    def __init__(self, m: int, z: int) -> None:
        if not 1 <= z < MERSENNE61:
            raise ValueError(f"fingerprint base must be in 1..p-1, got {z}")
        self.m = m
        self.z = z
        self.c0 = 0
        self.c1 = 0
        self.c2 = 0

    def update(self, index: int, delta: int) -> None:
        """Add ``delta`` to coordinate ``index``."""
        if not 0 <= index < self.m:
            raise ValueError(f"index {index} outside 0..{self.m - 1}")
        self.c0 += delta
        self.c1 += index * delta
        self.c2 = fadd(self.c2, fmul(delta % MERSENNE61, fpow(self.z, index + 1)))

    def merged(self, other: "OneSparseSketch") -> "OneSparseSketch":
        """Linear combination: the sketch of the sum of the two vectors."""
        if other.m != self.m or other.z != self.z:
            raise ValueError("cannot merge sketches with different parameters")
        out = OneSparseSketch(self.m, self.z)
        out.c0 = self.c0 + other.c0
        out.c1 = self.c1 + other.c1
        out.c2 = fadd(self.c2, other.c2)
        return out

    def recover(self) -> OneSparseResult:
        """Classify the sketched vector and recover it when one-sparse."""
        if self.c0 == 0 and self.c1 == 0 and self.c2 == 0:
            return OneSparseResult(RecoveryStatus.ZERO)
        if self.c0 != 0 and self.c1 % self.c0 == 0:
            index = self.c1 // self.c0
            if 0 <= index < self.m:
                expected = fmul(self.c0 % MERSENNE61, fpow(self.z, index + 1))
                if self.c2 == expected:
                    return OneSparseResult(RecoveryStatus.ONE_SPARSE, index, self.c0)
        return OneSparseResult(RecoveryStatus.DENSE)

    def counters(self) -> tuple[int, int, int]:
        """``(c0, c1, c2)`` — what gets serialized into the node's message."""
        return self.c0, self.c1, self.c2

    @classmethod
    def from_counters(cls, m: int, z: int, c0: int, c1: int, c2: int) -> "OneSparseSketch":
        """Rebuild a sketch from deserialized counters."""
        s = cls(m, z)
        s.c0, s.c1, s.c2 = c0, c1, c2
        return s
