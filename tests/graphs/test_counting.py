"""Tests for the Lemma 1 counting module: closed forms vs exhaustive enumeration."""

import math
import subprocess
import sys

import pytest

from repro.errors import GraphError
from repro.graphs import is_connected
from repro.graphs.counting import (
    MAX_ENUM_N,
    bipartite_fixed_parts_count,
    connected_graph_count,
    count_graphs_satisfying,
    count_square_free,
    count_triangle_free,
    enumerate_labeled_graphs,
    frugal_capacity_bits,
    labeled_forest_count,
    labeled_graph_count,
    labeled_tree_count,
    zarankiewicz_lower_bound,
)
from repro.graphs.properties import girth, has_square, has_triangle


class TestClosedForms:
    def test_labeled_graph_count(self):
        assert [labeled_graph_count(n) for n in range(5)] == [1, 1, 2, 8, 64]

    def test_connected_graph_count_oeis_a001187(self):
        # 1, 1, 1, 4, 38, 728, 26704, 1866256, ...
        assert [connected_graph_count(n) for n in range(8)] == [
            1, 1, 1, 4, 38, 728, 26704, 1866256,
        ]

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

    def test_negative_n_rejected(self):
        with pytest.raises(GraphError):
            connected_graph_count(-1)
        with pytest.raises(GraphError):
            labeled_tree_count(-1)
        with pytest.raises(GraphError):
            labeled_forest_count(-1)


class TestEnumeration:
    def test_enumerate_count(self):
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8

    def test_enumerate_guard(self):
        with pytest.raises(GraphError):
            list(enumerate_labeled_graphs(MAX_ENUM_N + 1))

    def test_connected_count_matches_recurrence(self):
        for n in range(1, 6):
            assert count_graphs_satisfying(n, is_connected) == connected_graph_count(n)

    def test_forest_count_matches_enumeration(self):
        for n in range(1, 6):
            forests = count_graphs_satisfying(n, lambda g: girth(g) == math.inf)
            assert forests == labeled_forest_count(n)


class TestVectorizedCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_square_free_matches_bruteforce(self, n):
        expected = count_graphs_satisfying(n, lambda g: not has_square(g))
        assert count_square_free(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_triangle_free_matches_bruteforce(self, n):
        expected = count_graphs_satisfying(n, lambda g: not has_triangle(g))
        assert count_triangle_free(n) == expected

    def test_square_free_n6(self):
        # cross-check the vectorized path on the largest cheap instance
        assert count_square_free(6) == count_graphs_satisfying(6, lambda g: not has_square(g))

    def test_guards(self):
        with pytest.raises(GraphError):
            count_square_free(MAX_ENUM_N + 1)
        with pytest.raises(GraphError):
            count_triangle_free(MAX_ENUM_N + 1)


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


class TestPureFallbackParity:
    """The big-int fallback counts exactly what the numpy path counts."""

    def test_bit_columns_match_bit_arrays(self):
        from repro.graphs import counting

        if counting._numpy() is None:
            pytest.skip("numpy not installed; the fallback IS the active path")
        for n in (3, 4, 5):
            pairs_np, bits = counting._pair_bit_arrays(n)
            pairs_py, cols, total = counting._pair_bit_columns(n)
            assert pairs_np == pairs_py and total == bits.shape[0]
            for e, col in enumerate(cols):
                want = sum(int(b) << g for g, b in enumerate(bits[:, e]))
                assert col == want, (n, e)

    def test_counts_identical_with_numpy_disabled(self, monkeypatch):
        from repro.graphs import counting

        if counting._numpy() is None:
            pytest.skip("numpy not installed; the fallback IS the active path")
        want = [(counting.count_square_free(n), counting.count_triangle_free(n))
                for n in (4, 5, 6)]
        monkeypatch.setattr(counting, "_numpy", lambda: None)
        got = [(counting.count_square_free(n), counting.count_triangle_free(n))
               for n in (4, 5, 6)]
        assert got == want

    def test_import_leaves_numpy_unloaded(self):
        """numpy is imported on first count, not with the module."""
        code = "import sys, repro.graphs.counting; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"
