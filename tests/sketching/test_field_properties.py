"""Seeded fuzz of the GF(2^61 - 1) field axioms and parameter derivation.

The field layer is the innermost loop of every sketch, and the AGM codec
(``repro.sketching.agm``) inlines its arithmetic — these properties are
what make that rewrite safe: any
algebraic drift in ``fadd``/``fmul``/``fpow`` breaks an axiom here long
before it corrupts a campaign digest.

All draws come from a dedicated ``random.Random`` (the repo-wide RNG
discipline); the sweep is deterministic given the seed.
"""

import random

import pytest

from repro.sketching.field import (
    MERSENNE61,
    derive_params,
    fadd,
    fmul,
    fpow,
    splitmix64,
)

TRIALS = 200


@pytest.fixture()
def rng():
    return random.Random(0xF1E1D)


def _elems(rng, count):
    return [rng.randrange(MERSENNE61) for _ in range(count)]


class TestFieldAxioms:
    def test_add_commutative_associative(self, rng):
        for _ in range(TRIALS):
            a, b, c = _elems(rng, 3)
            assert fadd(a, b) == fadd(b, a)
            assert fadd(fadd(a, b), c) == fadd(a, fadd(b, c))

    def test_mul_commutative_associative(self, rng):
        for _ in range(TRIALS):
            a, b, c = _elems(rng, 3)
            assert fmul(a, b) == fmul(b, a)
            assert fmul(fmul(a, b), c) == fmul(a, fmul(b, c))

    def test_distributivity(self, rng):
        for _ in range(TRIALS):
            a, b, c = _elems(rng, 3)
            assert fmul(a, fadd(b, c)) == fadd(fmul(a, b), fmul(a, c))

    def test_identities_and_additive_inverse(self, rng):
        for _ in range(TRIALS):
            (a,) = _elems(rng, 1)
            assert fadd(a, 0) == a % MERSENNE61
            assert fmul(a, 1) == a % MERSENNE61
            assert fadd(a, (MERSENNE61 - a) % MERSENNE61) == 0

    def test_fpow_matches_repeated_fmul(self, rng):
        for _ in range(TRIALS // 4):
            (a,) = _elems(rng, 1)
            exp = rng.randrange(1, 50)
            acc = 1
            for _ in range(exp):
                acc = fmul(acc, a)
            assert fpow(a, exp) == acc
        assert fpow(0, 0) == 1  # pow() convention, pinned

    def test_fermat_little_theorem(self, rng):
        """a^(p-1) = 1 for a != 0 — the field really is a field of order p."""
        for _ in range(20):
            a = rng.randrange(1, MERSENNE61)
            assert fpow(a, MERSENNE61 - 1) == 1

class TestDerivation:
    def test_splitmix64_reference_vectors(self):
        """The standard splitmix64 outputs for counter states 0, 1, 2.

        ``splitmix64(i)`` is the mix of state ``i`` after the golden-ratio
        increment — input 0 must give the canonical first output
        ``0xE220A8397B1DCDAF`` on every platform.
        """
        assert [splitmix64(i) for i in (0, 1, 2)] == [
            0xE220A8397B1DCDAF, 0x910A2DEC89025CC1, 0x975835DE1C9756CE,
        ]

    def test_derive_params_deterministic_and_64_bit(self, rng):
        for _ in range(TRIALS):
            seed = rng.getrandbits(64)
            tags = tuple(rng.getrandbits(16) for _ in range(rng.randrange(4)))
            v = derive_params(seed, *tags)
            assert v == derive_params(seed, *tags)
            assert 0 <= v < 1 << 64

    def test_derive_params_tag_sensitivity(self, rng):
        """Different tag vectors (and tag *order*) give different values."""
        seed = 2026
        assert derive_params(seed, 1, 2) != derive_params(seed, 2, 1)
        seen = {derive_params(seed, t) for t in range(256)}
        assert len(seen) == 256
