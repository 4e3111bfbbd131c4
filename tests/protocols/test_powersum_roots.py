"""Equivalence fuzz: the fast integer-root finder against the ascending scan.

:func:`integer_roots_of_monic` finds the roots of a Theorem 4 neighbourhood
polynomial in closed form (``d <= 2``) or by Newton iteration from above
(``d >= 3``), and falls back to a scan only on a miss.  The reference below
is the plain ascending Horner scan of ``1..n``: on every seeded case the two
must return the same root list or raise a ``DecodeError`` with the same
text, since ``result.error`` is part of a campaign record.
"""

import random

import pytest

from repro.errors import DecodeError
from repro.protocols.powersum import (
    compute_power_sums,
    decode_neighborhood_newton,
    integer_roots_of_monic,
    newton_identities,
)

SIZES = (1, 2, 16, 1024, 2**20)
#: The reference scan is O(n·d) per failed case; keep its inputs small.
SCAN_SIZES = (1, 2, 16, 1024)


def scan_roots_reference(elementary, n):
    """The ascending Horner scan of ``1..n`` with synthetic division on hits."""
    d = len(elementary)
    coeffs = [1] + [(-1) ** (idx + 1) * e for idx, e in enumerate(elementary)]
    roots = []
    candidate = 1
    while len(roots) < d and candidate <= n:
        acc = 0
        for c in coeffs:
            acc = acc * candidate + c
        if acc == 0:
            roots.append(candidate)
            new_coeffs = [coeffs[0]]
            for c in coeffs[1:-1]:
                new_coeffs.append(c + new_coeffs[-1] * candidate)
            coeffs = new_coeffs
        candidate += 1
    if len(roots) < d:
        raise DecodeError(
            f"polynomial of degree {d} has only {len(roots)} integer roots in 1..{n}"
        )
    return roots


def outcome(finder, elementary, n):
    try:
        return finder(list(elementary), n)
    except DecodeError as exc:
        return f"DecodeError: {exc}"


def assert_same_outcome(elementary, n):
    assert outcome(integer_roots_of_monic, elementary, n) == outcome(
        scan_roots_reference, elementary, n
    ), (elementary, n)


def elementary_of(neighbourhood):
    d = len(neighbourhood)
    return newton_identities(list(compute_power_sums(neighbourhood, d))) if d else []


def elementary_of_roots(roots):
    """``e_1..e_d`` of the multiset ``roots`` (repeats and non-positives allowed)."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return [(-1) ** (i + 1) * c for i, c in enumerate(coeffs[1:])]


def random_neighbourhood(rng, n, d):
    return frozenset(rng.sample(range(1, n + 1), d))


class TestValidNeighbourhoods:
    @pytest.mark.parametrize("n,d", [(n, d) for n in SIZES for d in range(9) if d <= n])
    def test_roots_are_the_neighbourhood_ascending(self, n, d):
        rng = random.Random(1000 * d + n)
        for _ in range(12):
            nbhd = random_neighbourhood(rng, n, d)
            e = elementary_of(nbhd)
            roots = integer_roots_of_monic(e, n)
            assert roots == sorted(nbhd)
            if n in SCAN_SIZES:
                assert roots == scan_roots_reference(e, n)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_extreme_neighbourhoods(self, d):
        n = 1024
        for nbhd in (range(1, d + 1), range(n - d + 1, n + 1),
                     [*range(1, d), n], [1, *range(n - d + 2, n + 1)]):
            assert_same_outcome(elementary_of(frozenset(nbhd)), n)


class TestCorruptCoefficients:
    @pytest.mark.parametrize("n", SCAN_SIZES)
    @pytest.mark.parametrize("delta", [-2, -1, 1, 2, 10**6, -(10**6)])
    def test_perturbed_elementary_vectors(self, n, delta):
        rng = random.Random(n * 31 + delta)
        for d in range(1, min(n, 8) + 1):
            for _ in range(3):
                e = elementary_of(random_neighbourhood(rng, n, d))
                e[rng.randrange(d)] += delta
                assert_same_outcome(e, n)

    @pytest.mark.parametrize("n", SCAN_SIZES)
    def test_random_coefficient_vectors(self, n):
        rng = random.Random(n)
        for _ in range(200):
            d = rng.randint(0, 8)
            e = [rng.randint(-n * n, n**3) for _ in range(d)]
            assert_same_outcome(e, n)

    @pytest.mark.parametrize("n", SCAN_SIZES)
    def test_repeated_and_out_of_range_roots(self, n):
        rng = random.Random(n + 7)
        for _ in range(200):
            d = rng.randint(1, 8)
            roots = [rng.randint(-3, n + 3) for _ in range(d)]
            if rng.random() < 0.5:
                roots[-1] = roots[0]
            assert_same_outcome(elementary_of_roots(roots), n)

    @pytest.mark.parametrize("e,n", [
        ([5, 7], 10),   # discriminant 25 - 28 < 0
        ([5, 5], 10),   # discriminant 5, not a square
        ([6, 9], 10),   # (x - 3)²: zero discriminant
        ([14, 24], 10),  # (x - 2)(x - 12): 12 outside 1..n
        ([9, 27, 27], 10),  # (x - 3)³
        ([1, 1, 1], 10),  # complex roots
    ])
    def test_named_failures(self, e, n):
        with pytest.raises(DecodeError, match="integer roots in 1..10"):
            integer_roots_of_monic(e, n)
        assert_same_outcome(e, n)


class TestScale:
    def test_three_neighbours_among_2_pow_40(self):
        """A scan of 1..2^40 never finishes; Newton takes O(log n) steps."""
        n = 2**40
        nbhd = frozenset({1, 2**39 + 12345, n})
        assert decode_neighborhood_newton(3, compute_power_sums(nbhd, 3), n) == nbhd

    def test_clustered_eight_neighbours_among_2_pow_40(self):
        n = 2**40
        nbhd = frozenset(range(n - 7, n + 1))
        assert decode_neighborhood_newton(8, compute_power_sums(nbhd, 8), n) == nbhd
