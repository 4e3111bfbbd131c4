"""Tests for the Lemma 1 counting module: closed forms vs exhaustive enumeration."""

import math
import subprocess
import sys

import pytest

from repro.errors import GraphError
from repro.graphs.counting import (
    MAX_ENUM_N,
    bipartite_fixed_parts_count,
    count_square_free,
    enumerate_labeled_graphs,
    frugal_capacity_bits,
    labeled_forest_count,
    labeled_graph_count,
    labeled_tree_count,
    zarankiewicz_lower_bound,
)
from repro.graphs.properties import girth, has_square, is_connected


def _brute_count(n, predicate):
    return sum(1 for g in enumerate_labeled_graphs(n) if predicate(g))


class TestClosedForms:
    def test_labeled_graph_count(self):
        assert [labeled_graph_count(n) for n in range(5)] == [1, 1, 2, 8, 64]

    def test_tree_count_cayley(self):
        assert [labeled_tree_count(n) for n in range(1, 7)] == [1, 1, 3, 16, 125, 1296]

    def test_forest_count_oeis_a001858(self):
        # 1, 1, 2, 7, 38, 291, 2932, 36961
        assert [labeled_forest_count(n) for n in range(8)] == [
            1, 1, 2, 7, 38, 291, 2932, 36961,
        ]

    def test_bipartite_fixed_parts(self):
        assert bipartite_fixed_parts_count(4) == 2**4
        assert bipartite_fixed_parts_count(6) == 2**9
        assert bipartite_fixed_parts_count(5) == 2**6  # odd split 2/3

    @pytest.mark.parametrize("count", [
        labeled_graph_count,
        labeled_tree_count,
        labeled_forest_count,
        bipartite_fixed_parts_count,
        pytest.param(lambda n: list(enumerate_labeled_graphs(n)), id="enumerate_labeled_graphs"),
        count_square_free,
        pytest.param(lambda n: frugal_capacity_bits(n, 1.0), id="frugal_capacity_bits"),
        zarankiewicz_lower_bound,
    ])
    def test_negative_n_rejected(self, count):
        with pytest.raises(GraphError):
            count(-1)


class TestEnumeration:
    def test_enumerate_count(self):
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8

    def test_enumerate_guard(self):
        with pytest.raises(GraphError):
            list(enumerate_labeled_graphs(MAX_ENUM_N + 1))

    @pytest.mark.parametrize("n", range(MAX_ENUM_N))
    def test_enumerates_every_graph_once(self, n):
        edge_sets = {g.edge_set() for g in enumerate_labeled_graphs(n)}
        assert len(edge_sets) == labeled_graph_count(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bipartite_fixed_parts_matches_enumeration(self, n):
        """Theorem 3's family: every edge joins {1..n/2} to {n/2+1..n}."""
        half = n // 2
        expected = _brute_count(n, lambda g: all(u <= half < v for u, v in g.edges()))
        assert bipartite_fixed_parts_count(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tree_count_matches_enumeration(self, n):
        trees = _brute_count(n, lambda g: g.m == n - 1 and is_connected(g))
        assert trees == labeled_tree_count(n)

    def test_forest_count_matches_enumeration(self):
        for n in range(1, 6):
            forests = _brute_count(n, lambda g: girth(g) == math.inf)
            assert forests == labeled_forest_count(n)


class TestVectorizedCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_square_free_matches_bruteforce(self, n):
        expected = _brute_count(n, lambda g: not has_square(g))
        assert count_square_free(n) == expected

    def test_square_free_n6(self):
        # cross-check the vectorized path on the largest cheap instance
        assert count_square_free(6) == _brute_count(6, lambda g: not has_square(g))

    def test_guards(self):
        with pytest.raises(GraphError):
            count_square_free(MAX_ENUM_N + 1)


class TestCapacityBound:
    def test_capacity_formula(self):
        assert frugal_capacity_bits(8, 2.0) == pytest.approx(2.0 * 8 * 3)

    def test_capacity_n1(self):
        assert frugal_capacity_bits(1, 5.0) == 0.0

    def test_capacity_rejects_zero(self):
        with pytest.raises(GraphError):
            frugal_capacity_bits(0, 1.0)

    def test_lemma1_shape_dense_families_exceed_capacity(self):
        """log2 |family| grows strictly faster than n log n for the hard families."""
        n = 512
        cap = frugal_capacity_bits(n, 10.0)  # generous constant
        assert math.log2(labeled_graph_count(n)) > cap
        assert math.log2(bipartite_fixed_parts_count(n)) > cap
        assert zarankiewicz_lower_bound(n) > frugal_capacity_bits(n, 1.0)

    def test_lemma1_shape_sparse_families_within_capacity(self):
        """Reconstructible families stay within O(n log n) bits."""
        for n in (16, 64, 256):
            assert math.log2(labeled_forest_count(n)) <= frugal_capacity_bits(n, 2.0)

    def test_zarankiewicz_monotone(self):
        vals = [zarankiewicz_lower_bound(n) for n in (4, 16, 64, 256)]
        assert vals == sorted(vals)
        assert zarankiewicz_lower_bound(1) == 0.0


SQUARE_FREE_PINS = [1, 1, 2, 8, 54, 548, 7984, 163440]  # n = 7 is OEIS A006786


class TestExhaustivePins:
    """Exact counts for every n the exhaustive counter accepts."""

    def test_square_free_pins(self):
        assert [count_square_free(n) for n in range(MAX_ENUM_N + 1)] == SQUARE_FREE_PINS

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bit_columns_are_edge_indicators(self, n):
        """Bit g of column e is bit e of graph index g."""
        from repro.graphs.counting import _pair_bit_columns

        pairs, cols, total = _pair_bit_columns(n)
        assert len(cols) == len(pairs) == math.comb(n, 2) and total == 1 << len(pairs)
        for e, col in enumerate(cols):
            assert col == sum(1 << g for g in range(total) if g >> e & 1), (n, e)

    def test_counts_without_numpy(self):
        """The counter is stdlib-only: it runs where ``import numpy`` fails."""
        code = (
            "import sys; sys.modules['numpy'] = None\n"
            "from repro.graphs.counting import count_square_free\n"
            "print(count_square_free(7))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.split() == [str(SQUARE_FREE_PINS[7])]
