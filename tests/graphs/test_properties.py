"""Tests for graph predicates, cross-validated against networkx."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    LabeledGraph,
    bipartition,
    connected_components,
    diameter,
    girth,
    has_square,
    has_triangle,
    is_bipartite,
    is_connected,
)
from repro.graphs.families import bull, kite, paw, petersen
from repro.graphs.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    random_square_free,
    random_tree,
    star_graph,
)


class TestTriangle:
    def test_known_positive(self):
        assert has_triangle(complete_graph(3))
        assert has_triangle(paw())
        assert has_triangle(bull())
        assert has_triangle(kite())

    def test_known_negative(self):
        assert not has_triangle(path_graph(5))
        assert not has_triangle(cycle_graph(4))
        assert not has_triangle(complete_bipartite(3, 3))
        assert not has_triangle(petersen())

    @settings(max_examples=40)
    @given(n=st.integers(2, 12), p=st.floats(0, 1), seed=st.integers(0, 999))
    def test_matches_networkx(self, n, p, seed):
        g = erdos_renyi(n, p, seed=seed)
        expected = any(nx.triangles(g.to_networkx()).values())
        assert has_triangle(g) == expected


class TestSquare:
    def test_known_positive(self):
        assert has_square(cycle_graph(4))
        assert has_square(complete_bipartite(2, 2))
        assert has_square(complete_graph(4))
        assert has_square(kite())

    def test_known_negative(self):
        assert not has_square(complete_graph(3))
        assert not has_square(path_graph(6))
        assert not has_square(star_graph(8))
        assert not has_square(petersen())  # girth 5

    def test_cycle5_has_no_square(self):
        assert not has_square(cycle_graph(5))

    def test_two_common_neighbors_is_square(self):
        g = LabeledGraph(4, [(1, 2), (1, 3), (4, 2), (4, 3)])
        assert has_square(g)

    @settings(max_examples=30)
    @given(n=st.integers(4, 10), p=st.floats(0, 1), seed=st.integers(0, 999))
    def test_matches_cycle_search(self, n, p, seed):
        g = erdos_renyi(n, p, seed=seed)
        nxg = g.to_networkx()
        # C4 subgraph exists iff some pair of vertices has >= 2 common neighbours
        expected = any(
            len(set(nxg[u]) & set(nxg[v])) >= 2
            for u in nxg
            for v in nxg
            if u < v
        )
        assert has_square(g) == expected


class TestGirth:
    def test_forest_infinite(self):
        assert girth(random_tree(10, seed=1)) == math.inf

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_cycles(self, n):
        assert girth(cycle_graph(n)) == n

    def test_petersen_is_5(self):
        assert girth(petersen()) == 5

    def test_kite_is_3(self):
        assert girth(kite()) == 3


class TestDiameter:
    def test_trivial(self):
        assert diameter(LabeledGraph(0)) == 0
        assert diameter(LabeledGraph(1)) == 0

    def test_disconnected_is_inf(self):
        assert diameter(LabeledGraph(2)) == math.inf

    def test_path(self):
        assert diameter(path_graph(7)) == 6

    def test_complete(self):
        assert diameter(complete_graph(5)) == 1

    def test_petersen_is_2(self):
        assert diameter(petersen()) == 2

    @settings(max_examples=25)
    @given(n=st.integers(2, 12), p=st.floats(0.2, 1), seed=st.integers(0, 999))
    def test_matches_networkx(self, n, p, seed):
        g = erdos_renyi(n, p, seed=seed)
        nxg = g.to_networkx()
        if nx.is_connected(nxg):
            assert diameter(g) == nx.diameter(nxg)
        else:
            assert diameter(g) == math.inf


class TestConnectivity:
    def test_empty_and_single(self):
        assert is_connected(LabeledGraph(0))
        assert is_connected(LabeledGraph(1))

    def test_two_isolated(self):
        assert not is_connected(LabeledGraph(2))

    def test_components(self):
        g = LabeledGraph(5, [(1, 2), (4, 5)])
        assert connected_components(g) == [frozenset({1, 2}), frozenset({3}), frozenset({4, 5})]

    @settings(max_examples=40)
    @given(n=st.integers(1, 14), p=st.floats(0, 1), seed=st.integers(0, 999))
    def test_matches_networkx(self, n, p, seed):
        g = erdos_renyi(n, p, seed=seed)
        assert is_connected(g) == nx.is_connected(g.to_networkx())


class TestBipartite:
    def test_even_cycle(self):
        assert is_bipartite(cycle_graph(6))

    def test_odd_cycle(self):
        assert not is_bipartite(cycle_graph(5))

    def test_bipartition_is_proper(self):
        g = complete_bipartite(3, 4)
        a, b = bipartition(g)
        assert a | b == set(g.vertices()) and not a & b
        for u, v in g.edges():
            assert (u in a) != (v in a)

    def test_isolated_vertices_covered(self):
        g = LabeledGraph(3, [(1, 2)])
        a, b = bipartition(g)
        assert a | b == {1, 2, 3}

    @settings(max_examples=40)
    @given(n=st.integers(1, 12), p=st.floats(0, 1), seed=st.integers(0, 999))
    def test_matches_networkx(self, n, p, seed):
        g = erdos_renyi(n, p, seed=seed)
        assert is_bipartite(g) == nx.is_bipartite(g.to_networkx())


@settings(max_examples=20)
@given(n=st.integers(4, 14), p=st.floats(0.1, 0.6), seed=st.integers(0, 999))
def test_square_free_generator_output_is_square_free(n, p, seed):
    """Property: the Theorem 1 family generator never emits a C4."""
    g = random_square_free(n, p, seed=seed)
    assert not has_square(g)
