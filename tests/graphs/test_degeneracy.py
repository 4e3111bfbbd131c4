"""Tests for degeneracy orderings, validated against networkx and by definition."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import LabeledGraph, core_numbers, degeneracy, degeneracy_ordering
from repro.graphs.generators import (
    apollonian,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    k_tree,
    path_graph,
    random_k_degenerate,
    random_tree,
    star_graph,
)


def ordering_is_valid(g: LabeledGraph, k: int, order: list[int]) -> bool:
    """Check Definition 2 directly: each vertex has <= k not-yet-removed neighbours."""
    remaining = set(g.vertices())
    for v in order:
        if len(g.neighbors(v) & remaining) - (v in remaining and v in g.neighbors(v)) > k:
            return False
        if len(g.neighbors(v) & remaining - {v}) > k:
            return False
        remaining.discard(v)
    return not remaining


class TestKnownValues:
    def test_empty_and_trivial(self):
        assert degeneracy(LabeledGraph(0)) == 0
        assert degeneracy(LabeledGraph(5)) == 0

    def test_path_and_star_are_1(self):
        assert degeneracy(path_graph(10)) == 1
        assert degeneracy(star_graph(10)) == 1

    def test_cycle_is_2(self):
        assert degeneracy(cycle_graph(8)) == 2

    def test_complete_graph(self):
        assert degeneracy(complete_graph(6)) == 5

    def test_tree_is_1(self):
        assert degeneracy(random_tree(40, seed=7)) == 1

    def test_k_tree_is_k(self):
        for k in (1, 2, 3):
            assert degeneracy(k_tree(20, k, seed=k)) == k

    def test_apollonian_is_3(self):
        assert degeneracy(apollonian(30, seed=1)) == 3


class TestOrderingValidity:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs(self, seed):
        g = erdos_renyi(25, 0.3, seed=seed)
        k, order = degeneracy_ordering(g)
        assert sorted(order) == list(g.vertices())
        assert ordering_is_valid(g, k, order)
        # minimality: networkx agrees on the value
        assert k == max(nx.core_number(g.to_networkx()).values(), default=0)


class TestCoreNumbers:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_networkx(self, seed):
        g = erdos_renyi(20, 0.35, seed=seed)
        assert core_numbers(g) == nx.core_number(g.to_networkx())

    def test_empty(self):
        assert core_numbers(LabeledGraph(0)) == {}


@settings(max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=20),
    k=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_random_k_degenerate_respects_bound(n, k, seed):
    """Property: the constructive generator's output really has degeneracy <= k."""
    g = random_k_degenerate(n, k, seed=seed)
    kk, order = degeneracy_ordering(g)
    assert kk <= k or n <= k  # tiny graphs may not reach k
    assert ordering_is_valid(g, kk, order)


@settings(max_examples=30)
@given(n=st.integers(min_value=2, max_value=14), p=st.floats(min_value=0, max_value=1), seed=st.integers(0, 999))
def test_degeneracy_matches_networkx_core(n, p, seed):
    """Property: degeneracy equals the max core number (classical identity)."""
    g = erdos_renyi(n, p, seed=seed)
    assert degeneracy(g) == max(nx.core_number(g.to_networkx()).values(), default=0)
