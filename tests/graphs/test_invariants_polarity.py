"""Tests for treewidth invariants and the polarity graph (extremal C4-free)."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import LabeledGraph, degeneracy, has_square
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    k_tree,
    partial_k_tree,
    path_graph,
    polarity_graph,
    random_tree,
)
from repro.graphs.invariants import treewidth_exact


class TestTreewidthExact:
    def test_known_values(self):
        assert treewidth_exact(LabeledGraph(0)) == 0
        assert treewidth_exact(LabeledGraph(3)) == 0
        assert treewidth_exact(path_graph(6)) == 1
        assert treewidth_exact(random_tree(10, seed=1)) == 1
        assert treewidth_exact(cycle_graph(7)) == 2
        assert treewidth_exact(complete_graph(6)) == 5

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_tree_has_treewidth_k(self, k):
        assert treewidth_exact(k_tree(k + 6, k, seed=k)) == k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_partial_k_tree_has_treewidth_at_most_k(self, k):
        for seed in range(4):
            g = partial_k_tree(12, k, seed=seed)
            assert degeneracy(g) <= treewidth_exact(g) <= k

    def test_guard(self):
        with pytest.raises(GraphError):
            treewidth_exact(LabeledGraph(20))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 9), p=st.floats(0, 1), seed=st.integers(0, 300))
    def test_degeneracy_at_most_treewidth(self, n, p, seed):
        """The inequality Section III leans on, verified exhaustively-ish."""
        g = erdos_renyi(n, p, seed=seed)
        assert degeneracy(g) <= treewidth_exact(g)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 9), p=st.floats(0.1, 0.9), seed=st.integers(0, 200))
    def test_matches_networkx_heuristic_bound(self, n, p, seed):
        """Exact value never exceeds networkx's min-fill upper bound."""
        g = erdos_renyi(n, p, seed=seed)
        ub, _ = nx.algorithms.approximation.treewidth_min_fill_in(g.to_networkx())
        assert treewidth_exact(g) <= ub


class TestPolarityGraph:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_square_free(self, q):
        g = polarity_graph(q)
        assert g.n == q * q + q + 1
        assert not has_square(g)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_edge_density_is_half_n_to_three_halves(self, q):
        """ER_q has ~ ½ q(q+1)² ≈ ½ n^{3/2} edges — the extremal density."""
        g = polarity_graph(q)
        assert g.m >= 0.35 * g.n**1.5  # within a constant of ½ n^{3/2}

    def test_rejects_composite(self):
        with pytest.raises(GraphError):
            polarity_graph(4)
        with pytest.raises(GraphError):
            polarity_graph(1)

    def test_degrees_q_or_q_plus_one(self):
        g = polarity_graph(5)
        assert set(g.degrees()) <= {5, 6}

    def test_reconstruction_via_theorem5(self):
        """The extremal square-free graph is itself degeneracy-bounded:
        the paper's protocol reconstructs it in one round."""
        from repro.protocols import DegeneracyReconstructionProtocol

        g = polarity_graph(5)
        k = degeneracy(g)
        assert k <= 6
        assert DegeneracyReconstructionProtocol(k).reconstruct(g) == g

    def test_square_reduction_on_polarity_graph(self):
        """Theorem 1's reduction reconstructs ER_3 from a square detector."""
        from repro.reductions import OracleSquareDetector, SquareReduction

        g = polarity_graph(2)  # 7 vertices
        assert SquareReduction(OracleSquareDetector()).reconstruct(g) == g
