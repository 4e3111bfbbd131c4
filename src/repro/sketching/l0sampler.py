"""L0 sampling: recover *some* nonzero coordinate of a sketched signed vector.

Subsample the coordinate universe at geometric rates: level ``ℓ`` keeps
coordinate ``e`` iff the pairwise-independent hash ``h(e) = (α·e + β) mod p``
is divisible by ``2^ℓ`` (so a ~``2^{-ℓ}`` fraction survives, and levels are
nested).  If the vector has ``s`` nonzeros, the level with ``2^ℓ ≈ s`` keeps
exactly one of them with constant probability, where the one-sparse sketch
recovers it exactly.  Querying scans all levels and returns the first
success; failure at every level is reported (not guessed), so the caller
can retry with an independent sampler.

Like its building block the sampler is linear, and all parameters are
derived from ``(seed, tags)`` public randomness so distributed parties agree.

The AGM protocols do not build samplers: :mod:`repro.sketching.agm` keeps
the same counters in flat lists on both sides of the wire, and derives
and caches whole banks of parameters.  This class and
:meth:`L0SamplerParams.derive` are its plain, uncached reference twin,
which ``tests/sketching/test_agm_parity.py`` checks every message and
every recovery against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SketchFailure
from repro.sketching.field import MERSENNE61, derive_params
from repro.sketching.onesparse import OneSparseResult, OneSparseSketch, RecoveryStatus

__all__ = ["L0SamplerParams", "L0Sampler"]


@dataclass(frozen=True)
class L0SamplerParams:
    """Shared-randomness parameters of one sampler instance."""

    m: int          # coordinate universe size
    levels: int     # number of subsampling levels
    alpha: int      # level hash multiplier (nonzero mod p)
    beta: int       # level hash offset
    z: int          # fingerprint base

    @classmethod
    def derive(cls, m: int, seed: int, *tags: int) -> "L0SamplerParams":
        """Derive parameters for instance ``tags`` from the public seed."""
        return cls(
            m=m,
            levels=max(1, m.bit_length() + 1),
            alpha=derive_params(seed, 1, *tags) % (MERSENNE61 - 1) + 1,
            beta=derive_params(seed, 2, *tags) % MERSENNE61,
            z=derive_params(seed, 3, *tags) % (MERSENNE61 - 1) + 1,
        )


class L0Sampler:
    """A bank of nested one-sparse sketches over ``0..m-1``."""

    __slots__ = ("params", "sketches")

    def __init__(self, params: L0SamplerParams) -> None:
        self.params = params
        self.sketches = [OneSparseSketch(params.m, params.z) for _ in range(params.levels)]

    def _level_of(self, index: int) -> int:
        """Deepest level the coordinate survives to (trailing zeros of h)."""
        h = (self.params.alpha * index + self.params.beta) % MERSENNE61
        if h == 0:
            return self.params.levels - 1
        tz = (h & -h).bit_length() - 1
        return min(tz, self.params.levels - 1)

    def update(self, index: int, delta: int) -> None:
        """Add ``delta`` to coordinate ``index`` at every level it survives to."""
        for sketch in self.sketches[:self._level_of(index) + 1]:
            sketch.update(index, delta)

    def merged(self, other: "L0Sampler") -> "L0Sampler":
        """Linear combination (same parameters required)."""
        if other.params != self.params:
            raise ValueError("cannot merge samplers with different parameters")
        out = L0Sampler(self.params)
        out.sketches = [a.merged(b) for a, b in zip(self.sketches, other.sketches)]
        return out

    def sample(self) -> tuple[int, int] | None:
        """Return ``(index, weight)`` of some nonzero coordinate, or None for zero vectors.

        Raises :class:`SketchFailure` when the vector is (whp) nonzero but no
        level isolated a single coordinate — the caller retries with an
        independent instance.
        """
        all_zero = True
        for sketch in self.sketches:
            result: OneSparseResult = sketch.recover()
            if result.status is RecoveryStatus.ONE_SPARSE:
                return result.index, result.weight
            if result.status is RecoveryStatus.DENSE:
                all_zero = False
        if all_zero:
            return None
        raise SketchFailure("no subsampling level isolated a single coordinate")

    def counters(self) -> list[tuple[int, int, int]]:
        """Per-level counters, the serialization payload."""
        return [s.counters() for s in self.sketches]

    @classmethod
    def from_counters(
        cls, params: L0SamplerParams, counters: list[tuple[int, int, int]]
    ) -> "L0Sampler":
        """Rebuild a sampler from deserialized per-level counters."""
        if len(counters) != params.levels:
            raise ValueError(f"expected {params.levels} levels, got {len(counters)}")
        out = cls(params)
        out.sketches = [
            OneSparseSketch.from_counters(params.m, params.z, *c) for c in counters
        ]
        return out
