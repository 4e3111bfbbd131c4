"""Unit tests for the LabeledGraph type."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidVertexError
from repro.graphs import LabeledGraph


class TestConstruction:
    def test_empty(self):
        g = LabeledGraph(0)
        assert g.n == 0 and g.m == 0
        assert list(g.vertices()) == []

    def test_edges_in_constructor(self):
        g = LabeledGraph(3, [(1, 2), (2, 3)])
        assert g.m == 2
        assert g.has_edge(1, 2) and g.has_edge(3, 2)
        assert not g.has_edge(1, 3)

    def test_duplicate_edges_ignored(self):
        g = LabeledGraph(2, [(1, 2), (2, 1), (1, 2)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidVertexError):
            LabeledGraph(2, [(1, 1)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(InvalidVertexError):
            LabeledGraph(2, [(1, 3)])
        with pytest.raises(InvalidVertexError):
            LabeledGraph(2, [(0, 1)])

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidVertexError):
            LabeledGraph(-1)


class TestAccessors:
    def setup_method(self):
        self.g = LabeledGraph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])

    def test_neighbors(self):
        assert self.g.neighbors(3) == {1, 2, 4}
        assert self.g.neighbors(4) == {3}

    def test_degree_and_degrees(self):
        assert self.g.degree(3) == 3
        assert self.g.degrees() == [2, 2, 3, 1]

    def test_edges_sorted(self):
        assert list(self.g.edges()) == [(1, 2), (1, 3), (2, 3), (3, 4)]

    def test_edge_set(self):
        assert self.g.edge_set() == frozenset({(1, 2), (1, 3), (2, 3), (3, 4)})

    def test_neighborhood_mask(self):
        assert self.g.neighborhood_mask(4) == 1 << 3
        assert self.g.neighborhood_mask(3) == (1 << 1) | (1 << 2) | (1 << 4)

    def test_remove_edge(self):
        self.g.remove_edge(3, 4)
        assert self.g.m == 3
        assert not self.g.has_edge(3, 4)

    def test_remove_absent_edge_raises(self):
        with pytest.raises(InvalidVertexError):
            self.g.remove_edge(1, 4)


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = LabeledGraph(3, [(1, 2)])
        h = g.copy()
        h.add_edge(2, 3)
        assert g.m == 1 and h.m == 2

    def test_extended_keeps_ids(self):
        g = LabeledGraph(3, [(1, 2)])
        h = g.extended(2, [(4, 5), (3, 4)])
        assert h.n == 5
        assert h.has_edge(1, 2) and h.has_edge(4, 5) and h.has_edge(3, 4)
        assert g.n == 3  # original untouched

    def test_extended_rejects_negative(self):
        with pytest.raises(InvalidVertexError):
            LabeledGraph(1).extended(-1)

    def test_complement(self):
        g = LabeledGraph(3, [(1, 2)])
        c = g.complement()
        assert c.edge_set() == frozenset({(1, 3), (2, 3)})

    def test_complement_involution(self):
        g = LabeledGraph(4, [(1, 2), (3, 4), (1, 4)])
        assert g.complement().complement() == g


class TestConversions:
    def test_to_networkx_keeps_ids_and_isolated_vertices(self):
        g = LabeledGraph(5, [(1, 2), (2, 4)])
        nxg = g.to_networkx()
        assert sorted(nxg.nodes) == [1, 2, 3, 4, 5]
        assert sorted(tuple(sorted(e)) for e in nxg.edges) == [(1, 2), (2, 4)]


class TestEquality:
    def test_eq_and_hash(self):
        g = LabeledGraph(3, [(1, 2)])
        h = LabeledGraph(3, [(1, 2)])
        assert g == h and hash(g) == hash(h)
        h.add_edge(2, 3)
        assert g != h

    def test_eq_other_type(self):
        assert LabeledGraph(1) != "graph"


@given(
    n=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_edge_count_invariant(n, data):
    """Property: m always equals the number of distinct edges inserted minus removed."""
    g = LabeledGraph(n)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if not pairs:
        return
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=30))
    present = set()
    for u, v in chosen:
        g.add_edge(u, v)
        present.add((u, v))
    assert g.m == len(present)
    assert g.edge_set() == frozenset(present)
    assert sum(g.degrees()) == 2 * g.m
