"""Equivalence fuzz: the fast decoders against their references.

:func:`integer_roots_of_monic` finds the roots of a Theorem 4 neighbourhood
polynomial in closed form (``d <= 2``) or by Newton iteration from above
(``d >= 3``), and falls back to a scan only on a miss.  The reference below
is the plain ascending Horner scan of ``1..n``: on every seeded case the two
must return the same root list or raise a ``DecodeError`` with the same
text, since ``result.error`` is part of a campaign record.

:func:`decode_neighborhood_newton` decodes degree 3 in closed form (a
trigonometric cubic solve, checked exactly in ints) before the Newton
route.  ``TestCubicClosedForm`` holds it to that route, kept here as
:func:`newton_route_reference`: the same frozenset in the same iteration
order (it sets Algorithm 4's worklist order), or a ``DecodeError`` with the
same text.  CI's ``test`` job runs :func:`check_cubic` over every 3-subset
of ``1..64`` and their ``±1`` perturbations, counts pinned in
``CUBIC_COUNTS``.
"""
import random
from itertools import combinations

import pytest

from repro.errors import DecodeError
from repro.graphs.generators import random_k_degenerate
from repro.protocols import DegeneracyReconstructionProtocol, powersum
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


@pytest.fixture
def newton_calls(monkeypatch):
    """The length of the sums given to each ``newton_identities`` call."""
    calls = []
    route = powersum.newton_identities
    monkeypatch.setattr(powersum, "newton_identities",
                        lambda sums: calls.append(len(sums)) or route(sums))
    return calls


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
    def test_three_neighbours_among_2_pow_40(self, newton_calls):
        """A scan of 1..2^40 never finishes; Newton takes O(log n) steps.

        The degree-3 closed form stops at ``n = 2^26``, so this is Newton's.
        """
        n = 2**40
        nbhd = frozenset({1, 2**39 + 12345, n})
        assert decode_neighborhood_newton(3, compute_power_sums(nbhd, 3), n) == nbhd
        assert newton_calls == [3]

    def test_clustered_eight_neighbours_among_2_pow_40(self):
        n = 2**40
        nbhd = frozenset(range(n - 7, n + 1))
        assert decode_neighborhood_newton(8, compute_power_sums(nbhd, 8), n) == nbhd


def newton_route_reference(sums, n):
    """The degree-3 decode before its closed form: Newton's route alone.

    Lists keep the frozenset's iteration order for the comparison.
    """
    result = frozenset(integer_roots_of_monic(newton_identities(list(sums[:3])), n))
    if len(result) != 3:
        raise DecodeError("decoded neighbourhood has repeated vertices")
    return list(result)


def decode_cubic(sums, n):
    return list(decode_neighborhood_newton(3, sums, n))


def assert_same_cubic(sums, n):
    result = outcome(decode_cubic, sums, n)
    assert result == outcome(newton_route_reference, sums, n), (sums, n)
    return result


def perturbed(sums, deltas):
    """Each of ``p_1..p_3`` moved by each delta, one change at a time."""
    for p in range(3):
        for delta in deltas:
            moved = list(sums)
            moved[p] += delta
            yield moved


#: ``(n, deltas) -> (sets, perturbed vectors, perturbed that decode, errors)``.
CUBIC_COUNTS = {
    (24, (-2, -1, 1, 2)): (2024, 24288, 4, 24284),
    (64, (-1, 1)): (41664, 249984, 0, 249984),
}


def check_cubic(n: int, deltas: tuple[int, ...] = (-1, 1)) -> tuple[int, int, int, int]:
    """Every 3-subset of ``1..n`` and its perturbations, closed form vs Newton.

    Each genuine set must decode to itself without the Newton route; every
    perturbed vector must match :func:`newton_route_reference`.  Asserts the
    counts against ``CUBIC_COUNTS``.
    """
    genuine = [(nbhd, compute_power_sums(frozenset(nbhd), 3))
               for nbhd in combinations(range(1, n + 1), 3)]
    calls = 0
    route = powersum.newton_identities

    def counted(sums):
        nonlocal calls
        calls += 1
        return route(sums)

    powersum.newton_identities = counted
    try:
        for nbhd, sums in genuine:
            assert decode_cubic(sums, n) == list(frozenset(nbhd)), nbhd
    finally:
        powersum.newton_identities = route
    assert calls == 0
    moved = decoded = errors = 0
    for nbhd, sums in genuine:
        for vector in perturbed(sums, deltas):
            moved += 1
            if isinstance(assert_same_cubic(vector, n), str):
                errors += 1
            else:
                decoded += 1
    counts = (len(genuine), moved, decoded, errors)
    assert counts == CUBIC_COUNTS[(n, deltas)], counts
    return counts


class TestCubicClosedForm:
    def test_every_subset_of_1_to_24_and_its_perturbations(self):
        check_cubic(24, (-2, -1, 1, 2))

    @pytest.mark.parametrize("n", [1024, 2**17, 2**20, 2**40])
    def test_seeded_sets(self, n):
        rng = random.Random(n)
        for _ in range(200):
            nbhd = random_neighbourhood(rng, n, 3)
            sums = compute_power_sums(nbhd, 3)
            assert set(assert_same_cubic(sums, n)) == nbhd

    @pytest.mark.parametrize("n", [3, 4, 16, 1024])
    def test_seeded_perturbations(self, n):
        rng = random.Random(n + 1)
        for _ in range(25):
            sums = compute_power_sums(random_neighbourhood(rng, n, 3), 3)
            for vector in perturbed(sums, (-2, -1, 1, 2)):
                assert_same_cubic(vector, n)

    @pytest.mark.parametrize("n", [1024, 2**20])
    def test_clustered_and_extreme_sets(self, n):
        for nbhd in [(1, 2, 3), (n - 2, n - 1, n), (1, 2, n), (1, n - 1, n),
                     (n // 2, n // 2 + 1, n // 2 + 2), (1, n // 2, n)]:
            nbhd = frozenset(nbhd)
            assert set(assert_same_cubic(compute_power_sums(nbhd, 3), n)) == nbhd

    @pytest.mark.parametrize("fourth", [0, -1, 1, 10**30])
    def test_a_fourth_sum_is_ignored(self, fourth):
        rng = random.Random(fourth % 97)
        for n in (16, 1024):
            for _ in range(20):
                nbhd = random_neighbourhood(rng, n, 3)
                sums = [*compute_power_sums(nbhd, 3), fourth]
                assert set(assert_same_cubic(sums, n)) == nbhd
                sums[1] += 1
                assert_same_cubic(sums, n)

    @pytest.mark.parametrize("sums", [
        (0, 0, 0),
        (0, 2, 0),      # roots -1, 0, 1
        (-6, 14, -36),  # roots -1, -2, -3
        (6, -14, 36),
        (-1, -1, -1),
        (6, 14, -36),
        (0, 0, -6),
        (3, 3, 3),      # {1, 1, 1}
        (4, 6, 10),     # {1, 1, 2}: a repeated root
        (6, 13, 30),    # a non-integer e_2
        (3, 5, 9),      # {0, 1, 2}: 0 is no vertex
        (1028, 1 + 4 + 1025**2, 1 + 8 + 1025**3),  # 1025 is outside 1..1024
        (10**200, 10**400, 10**600),  # no double holds these
    ])
    def test_zero_negative_and_degenerate_sums(self, sums):
        assert isinstance(assert_same_cubic(sums, 1024), str)

    def test_reconstruction_at_1024_never_runs_newton(self, newton_calls):
        for seed in range(3):
            g = random_k_degenerate(1024, 3, seed)
            assert DegeneracyReconstructionProtocol(3).run(g) == g
        assert newton_calls == []
