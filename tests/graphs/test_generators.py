"""Tests for graph generators: structural invariants of each family."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import degeneracy, is_bipartite, is_connected
from repro.graphs.generators import (
    apollonian,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    erdos_renyi,
    fat_tree,
    grid_2d,
    hypercube,
    k_tree,
    partial_k_tree,
    path_graph,
    random_bipartite,
    random_forest,
    random_k_degenerate,
    random_planar,
    random_tree,
    star_graph,
    torus_2d,
)
from repro.graphs.properties import connected_components, girth


class TestDeterministicTopologies:
    def test_path(self):
        g = path_graph(5)
        assert g.m == 4 and is_connected(g)

    def test_cycle_rejects_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(6)
        assert g.degree(1) == 5 and g.m == 5

    def test_complete(self):
        g = complete_graph(6)
        assert g.m == 15

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.m == 6 and is_bipartite(g)

    def test_grid(self):
        g = grid_2d(3, 4)
        assert g.n == 12 and g.m == 3 * 3 + 2 * 4
        assert is_connected(g) and is_bipartite(g)
        assert degeneracy(g) == 2

    def test_grid_rejects_zero(self):
        with pytest.raises(GraphError):
            grid_2d(0, 3)

    def test_torus_regular(self):
        g = torus_2d(3, 4)
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert is_connected(g)

    def test_torus_rejects_small(self):
        with pytest.raises(GraphError):
            torus_2d(2, 4)

    def test_hypercube(self):
        g = hypercube(4)
        assert g.n == 16 and g.m == 32
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert is_bipartite(g)

    def test_hypercube_dim0(self):
        assert hypercube(0).n == 1

    def test_fat_tree_structure(self):
        k = 4
        g = fat_tree(k)
        assert g.n == (k // 2) ** 2 + k * k  # 4 core + 16 pod switches
        assert is_connected(g)
        # core and aggregation switches have fabric degree k; edge switches
        # keep k/2 fabric ports (their other k/2 ports face hosts, omitted)
        degs = sorted(g.degrees())
        assert set(degs) == {k // 2, k}
        assert degs.count(k // 2) == k * (k // 2)
        # fat-trees are sparse: reconstructible by the paper's protocol
        assert degeneracy(g) <= k

    def test_fat_tree_rejects_odd(self):
        with pytest.raises(GraphError):
            fat_tree(3)


class TestRandomTreesForests:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    def test_tree_is_tree(self, n):
        g = random_tree(n, seed=n)
        assert g.m == n - 1 and is_connected(g)

    def test_tree_deterministic_given_seed(self):
        assert random_tree(20, seed=5) == random_tree(20, seed=5)

    def test_forest_component_count(self):
        g = random_forest(20, 4, seed=9)
        assert g.m == 20 - 4
        assert len(connected_components(g)) == 4
        assert degeneracy(g) <= 1

    def test_forest_bad_args(self):
        with pytest.raises(GraphError):
            random_forest(5, 6)
        with pytest.raises(GraphError):
            random_forest(5, 0)

    def test_prufer_uniformity_smoke(self):
        # all 3 labelled trees on 3 vertices appear in 200 draws
        seen = {random_tree(3, seed=s).edge_set() for s in range(200)}
        assert len(seen) == 3


class TestErdosRenyi:
    def test_p_zero_and_one(self):
        assert erdos_renyi(6, 0.0, seed=1).m == 0
        assert erdos_renyi(6, 1.0, seed=1).m == 15

    def test_p_out_of_range(self):
        with pytest.raises(GraphError):
            erdos_renyi(4, 1.5)

    def test_bipartite_parts_respected(self):
        g = random_bipartite(4, 5, 0.5, seed=3)
        for u, v in g.edges():
            assert (u <= 4) != (v <= 4)


class TestDegeneracyFamilies:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_k_tree_degeneracy(self, k):
        g = k_tree(k + 8, k, seed=k)
        assert degeneracy(g) == k
        assert g.m == (k * (k + 1)) // 2 + (g.n - k - 1) * k

    def test_k_tree_too_small(self):
        with pytest.raises(GraphError):
            k_tree(2, 3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_partial_k_tree_bound(self, k):
        g = partial_k_tree(20, k, keep_prob=0.6, seed=k)
        assert degeneracy(g) <= k

    def test_random_k_degenerate_negative_k(self):
        with pytest.raises(GraphError):
            random_k_degenerate(5, -1)

    def test_random_k_degenerate_exact_edge_count(self):
        g = random_k_degenerate(10, 2, seed=4)
        # first vertex 0 edges, second 1, rest 2 each
        assert g.m == 0 + 1 + 8 * 2

    def test_apollonian_planar(self):
        g = apollonian(25, seed=2)
        ok, _ = nx.check_planarity(g.to_networkx())
        assert ok
        assert degeneracy(g) == 3
        assert g.m == 3 + 3 * (g.n - 3)

    def test_apollonian_too_small(self):
        with pytest.raises(GraphError):
            apollonian(2)

    def test_random_planar_is_planar(self):
        g = random_planar(30, keep_prob=0.7, seed=11)
        ok, _ = nx.check_planarity(g.to_networkx())
        assert ok
        assert degeneracy(g) <= 5

    def test_random_planar_tiny(self):
        assert random_planar(2, seed=1).n == 2


class TestDisjointUnion:
    def test_shifts_ids(self):
        g = disjoint_union(path_graph(2), cycle_graph(3))
        assert g.n == 5
        assert g.edge_set() == frozenset({(1, 2), (3, 4), (4, 5), (3, 5)})

    def test_empty_union(self):
        assert disjoint_union().n == 0


@settings(max_examples=25)
@given(n=st.integers(3, 30), seed=st.integers(0, 10_000))
def test_apollonian_girth_3(n, seed):
    """Property: Apollonian networks are triangulations — girth exactly 3."""
    assert girth(apollonian(n, seed=seed)) == 3


@settings(max_examples=25)
@given(
    a=st.integers(1, 8),
    b=st.integers(1, 8),
    p=st.floats(0, 1),
    seed=st.integers(0, 999),
)
def test_random_bipartite_is_bipartite(a, b, p, seed):
    assert is_bipartite(random_bipartite(a, b, p, seed=seed))
