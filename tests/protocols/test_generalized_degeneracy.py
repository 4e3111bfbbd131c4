"""Tests for the Section III.E generalized-degeneracy protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError, GraphError, RecognitionFailure
from repro.graphs import LabeledGraph, degeneracy
from repro.graphs.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    random_forest,
    random_tree,
)
from repro.protocols import GeneralizedDegeneracyProtocol
from repro.protocols.generalized_degeneracy import generalized_degeneracy


class TestGeneralizedDegeneracyValue:
    def test_complete_graph_is_0(self):
        # every suffix has co-degree 0
        assert generalized_degeneracy(complete_graph(6)) == 0

    def test_empty_graph_is_0(self):
        assert generalized_degeneracy(LabeledGraph(6)) == 0

    def test_at_most_plain_degeneracy(self):
        for seed in range(5):
            g = erdos_renyi(12, 0.4, seed=seed)
            assert generalized_degeneracy(g) <= max(0, degeneracy(g))

    def test_complement_of_tree_is_at_most_1(self):
        g = random_tree(10, seed=3).complement()
        assert generalized_degeneracy(g) <= 1

    def test_balanced_complete_bipartite_is_large(self):
        # K_{4,4}: every vertex has degree 4 and co-degree 3
        assert generalized_degeneracy(complete_bipartite(4, 4)) == 3


class TestGeneralizedReconstruction:
    def test_sparse_graphs(self):
        g = random_forest(15, 3, seed=1)
        assert GeneralizedDegeneracyProtocol(1).reconstruct(g) == g

    @pytest.mark.parametrize("n,seed", [(12, 5), (48, 3)])
    def test_dense_complements(self, n, seed):
        """The family plain degeneracy cannot touch: complements of forests."""
        g = random_tree(n, seed=seed).complement()
        assert degeneracy(g) >= 8  # far above k...
        assert GeneralizedDegeneracyProtocol(1).reconstruct(g) == g

    def test_complete_graph(self):
        g = complete_graph(9)
        assert GeneralizedDegeneracyProtocol(1).reconstruct(g) == g

    def test_mixed_join_like_graph(self):
        # dense core (complement-prunable) with sparse pendant (degree-prunable)
        core = complete_graph(6)
        g = core.extended(3, [(6, 7), (7, 8), (8, 9)])
        assert generalized_degeneracy(g) <= 2
        assert GeneralizedDegeneracyProtocol(2).reconstruct(g) == g

    def test_rejects_above_bound(self):
        # C6 has generalized degeneracy 2 (degree 2, co-degree 3)
        g = cycle_graph(6)
        with pytest.raises(RecognitionFailure):
            GeneralizedDegeneracyProtocol(1).reconstruct(g)

    def test_k0_rejected(self):
        with pytest.raises(GraphError):
            GeneralizedDegeneracyProtocol(0)

    def test_message_is_twice_powersum(self):
        from repro.protocols.powersum import powersum_message_bits

        p = GeneralizedDegeneracyProtocol(2)
        msg = p.local(20, 1, frozenset({2, 3}))
        w_id = 5  # id_width(20)
        # ID + deg + two power-sum blocks: (2 + 2*(2+3)) * w
        assert msg.bits == 2 * powersum_message_bits(20, 2) - 2 * w_id


class TestMessageIsAlgorithm3PlusCoSums:
    """III.E's message: Algorithm 3's ``(ID, deg, b)`` then the co-sums ``b̄``."""

    @pytest.mark.parametrize("k,acc,bits", [
        # pinned before the message was built from encode_powersum_message
        (1, 0xA3058B7, 30),
        (2, 0x28C16025C5B89EF, 60),
        (3, 0x28C16025C026A85B89EF09873, 100),
    ])
    def test_message_layout(self, k, acc, bits):
        from repro.bits import BitWriter, id_width
        from repro.model import Message
        from repro.protocols.powersum import compute_power_sums, encode_powersum_message

        n, i, nbrs = 20, 5, frozenset({2, 3, 17})
        co = frozenset(range(1, n + 1)) - nbrs - {i}
        w = BitWriter()
        w.write_many((b, (p + 1) * id_width(n))
                     for p, b in enumerate(compute_power_sums(co, k), start=1))
        msg = GeneralizedDegeneracyProtocol(k).local(n, i, nbrs)
        assert msg == encode_powersum_message(n, k, i, nbrs).concat(Message.from_writer(w))
        assert (msg.acc, msg.bits) == (acc, bits)


class TestCorruptMessages:
    @staticmethod
    def c4_with_isolated_vertex_messages(p):
        """Messages of the 4-cycle 2-3-4-5 plus vertex 1, n = 5."""
        g = LabeledGraph(5, [(2, 3), (3, 4), (4, 5), (5, 2)])
        return [p.local(5, v, g.neighbors(v)) for v in g.vertices()]

    def test_self_neighbour_rejected(self):
        from repro.bits import BitWriter
        from repro.model import Message

        p = GeneralizedDegeneracyProtocol(1)
        messages = self.c4_with_isolated_vertex_messages(p)
        # vertex 1 claims degree 1 with b_1 = 1: its only neighbour is itself
        w = BitWriter()
        w.write_many([(1, 3), (1, 3), (1, 6), (0, 6)])
        messages[0] = Message.from_writer(w)
        with pytest.raises(DecodeError, match="vertex 1 decoded neighbours outside"):
            p.global_(5, messages)

    def test_degree_above_n_minus_1_rejected_at_unpack(self):
        from repro.bits import BitWriter
        from repro.model import Message

        p = GeneralizedDegeneracyProtocol(1)
        messages = self.c4_with_isolated_vertex_messages(p)
        # vertex 1 claims degree 7 > n-1 = 4: its co-degree would be negative
        w = BitWriter()
        w.write_many([(1, 3), (7, 3), (0, 6), (0, 6)])
        messages[0] = Message.from_writer(w)
        with pytest.raises(DecodeError, match="decoded degree 7 exceeds n-1 = 4"):
            p.global_(5, messages)

    def test_neighbour_of_current_degree_0_named(self):
        from repro.bits import BitWriter
        from repro.model import Message

        p = GeneralizedDegeneracyProtocol(1)
        g = LabeledGraph(3, [(1, 2), (2, 3)])
        messages = [p.local(3, v, g.neighbors(v)) for v in g.vertices()]
        # vertex 2's degree field zeroed: 1 is pruned first and names 2,
        # whose degree would fall to -1
        w = BitWriter()
        w.write_many([(2, 2), (0, 2), (4, 4), (0, 4)])
        messages[1] = Message.from_writer(w)
        with pytest.raises(DecodeError, match="vertex 2 has current degree 0"):
            p.global_(3, messages)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), p=st.floats(0, 1), seed=st.integers(0, 999))
def test_generalized_reconstruction_property(n, p, seed):
    """Property: with k = the true generalized degeneracy, reconstruction is exact."""
    g = erdos_renyi(n, p, seed=seed)
    k = max(1, generalized_degeneracy(g))
    assert GeneralizedDegeneracyProtocol(k).reconstruct(g) == g


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), p=st.floats(0, 1), seed=st.integers(0, 999))
def test_complement_symmetry_property(n, p, seed):
    """Property: generalized degeneracy is invariant under complementation."""
    g = erdos_renyi(n, p, seed=seed)
    assert generalized_degeneracy(g) == generalized_degeneracy(g.complement())
