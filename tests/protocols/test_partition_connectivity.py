"""Tests for the conclusion's k-partition connectivity coalition protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import LabeledGraph, is_connected
from repro.graphs.generators import (
    cycle_graph,
    disjoint_union,
    erdos_renyi,
    path_graph,
    random_tree,
    star_graph,
)
from repro.model import log2_ceil
from repro.protocols import PartitionConnectivityProtocol
from repro.protocols.partition_connectivity import parts_of


class TestPartsOf:
    def test_balanced_split(self):
        parts = parts_of(10, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert [list(p) for p in parts] == [[1, 2, 3, 4], [5, 6, 7], [8, 9, 10]]

    def test_k1(self):
        assert parts_of(5, 1) == [range(1, 6)]

    def test_rejects_bad_k(self):
        with pytest.raises(GraphError):
            parts_of(5, 0)
        with pytest.raises(GraphError):
            parts_of(3, 5)


class TestPartForest:
    def test_forest_spans_incident_subgraph(self):
        g = star_graph(8)
        p = PartitionConnectivityProtocol(2)
        part = parts_of(8, 2)[0]  # contains the centre
        forest = p.part_forest(g, part)
        assert len(forest) == 7  # the whole star is one tree

    def test_forest_acyclic(self):
        g = cycle_graph(8)
        p = PartitionConnectivityProtocol(4)
        for part in parts_of(8, 4):
            forest = p.part_forest(g, part)
            h = LabeledGraph(8, forest)
            # acyclic: edges <= vertices involved - components > trivially bounded
            assert len(forest) < 8


class TestConnectivityDecision:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_connected_inputs(self, k):
        for g in (path_graph(12), cycle_graph(12), random_tree(12, seed=k), star_graph(12)):
            assert PartitionConnectivityProtocol(k).run(g).connected is True

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_disconnected_inputs(self, k):
        g = disjoint_union(path_graph(5), cycle_graph(4), star_graph(3))
        assert PartitionConnectivityProtocol(k).run(g).connected is False

    def test_isolated_vertices(self):
        g = LabeledGraph(6, [(1, 2)])
        assert PartitionConnectivityProtocol(2).run(g).connected is False

    def test_edgeless(self):
        assert PartitionConnectivityProtocol(2).run(LabeledGraph(4)).connected is False
        assert PartitionConnectivityProtocol(1).run(LabeledGraph(1)).connected is True

    def test_empty_graph(self):
        assert PartitionConnectivityProtocol(3).run(LabeledGraph(0)).connected is True


class TestBudgetClaim:
    """The paper's claim: O(k log n) bits per node."""

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_bits_per_node_scale(self, k):
        n = 256
        g = erdos_renyi(n, 0.05, seed=k)
        report = PartitionConnectivityProtocol(k).run(g)
        # forest <= n-1 edges * 2w bits over n/k members + header
        bound = (2 * (n - 1) * (log2_ceil(n) + 1)) / (n // k) + 4 * log2_ceil(n) + 8
        assert report.max_bits_per_node <= bound
        assert report.max_bits_per_node <= 4.0 * k * log2_ceil(n)  # k log n units

    def test_report_fields(self):
        g = path_graph(20)
        report = PartitionConnectivityProtocol(4).run(g)
        assert report.n == 20 and report.k_parts == 4
        assert report.total_bits > 0 and report.forest_edges >= 19


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30), p=st.floats(0, 0.5), seed=st.integers(0, 999), k=st.integers(1, 6))
def test_partition_connectivity_matches_ground_truth(n, p, seed, k):
    """Property: the coalition protocol always agrees with BFS connectivity."""
    k = min(k, n)
    g = erdos_renyi(n, p, seed=seed)
    assert PartitionConnectivityProtocol(k).run(g).connected == is_connected(g)
