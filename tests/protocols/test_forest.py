"""Tests for the Section III.A forest protocol (k = 1 special case)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError, RecognitionFailure
from repro.graphs import LabeledGraph
from repro.graphs.generators import cycle_graph, path_graph, random_forest, random_tree, star_graph
from repro.model import Message, log2_ceil
from repro.protocols import (
    DegeneracyReconstructionProtocol,
    ForestReconstructionProtocol,
)


class TestForestReconstruction:
    @pytest.mark.parametrize("gen", [
        lambda: random_tree(20, seed=1),
        lambda: random_forest(20, 4, seed=2),
        lambda: path_graph(15),
        lambda: star_graph(25),
        lambda: LabeledGraph(5),  # all isolated
        lambda: LabeledGraph(1),
        lambda: LabeledGraph(2, [(1, 2)]),
        lambda: random_forest(4096, 100, seed=1),  # EXP-FOREST scale
    ])
    def test_exact(self, gen):
        g = gen()
        assert ForestReconstructionProtocol().reconstruct(g) == g

    def test_cycle_rejected_with_witness(self):
        g = cycle_graph(6)
        with pytest.raises(RecognitionFailure) as exc:
            ForestReconstructionProtocol().reconstruct(g)
        assert exc.value.stuck_vertices == frozenset(range(1, 7))

    def test_triangle_plus_tree_rejected(self):
        g = LabeledGraph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)])
        with pytest.raises(RecognitionFailure) as exc:
            ForestReconstructionProtocol().reconstruct(g)
        assert exc.value.stuck_vertices == frozenset({1, 2, 3})

    def test_message_under_4_log_n(self):
        """The paper: 'this clearly can be encoded using less than 4 log n bits'."""
        p = ForestReconstructionProtocol()
        for n in (16, 256, 4096):
            g = star_graph(n)
            assert p.max_message_bits(g) <= 4 * (log2_ceil(n) + 1)

    def test_agrees_with_k1_powersum_protocol(self):
        """III.A is the k=1 instantiation of the general algorithm."""
        for seed in range(5):
            g = random_forest(18, 3, seed=seed)
            assert (
                ForestReconstructionProtocol().reconstruct(g)
                == DegeneracyReconstructionProtocol(1).reconstruct(g)
                == g
            )

    @pytest.mark.parametrize("n", [1, 2, 16, 1024])
    @pytest.mark.parametrize("family", ["forest", "star", "path"])
    def test_message_vector_is_algorithm3_at_k1(self, family, n):
        """Every node sends exactly Algorithm 3's k = 1 message."""
        g = {"forest": lambda: random_forest(n, max(1, n // 20), seed=n),
             "star": lambda: star_graph(n),
             "path": lambda: path_graph(n)}[family]()
        assert (ForestReconstructionProtocol().message_vector(g)
                == DegeneracyReconstructionProtocol(1).message_vector(g))

    def test_malformed_message(self):
        with pytest.raises(DecodeError):
            ForestReconstructionProtocol().global_(2, [Message(0, 1), Message(0, 1)])

    def test_duplicate_ids(self):
        p = ForestReconstructionProtocol()
        m = p.local(3, 1, frozenset())
        with pytest.raises(DecodeError, match="duplicate"):
            p.global_(3, [m, m, m])


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 40), t=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_forest_reconstruction_property(n, t, seed):
    """Property: every forest round-trips through the protocol."""
    t = min(t, n)
    g = random_forest(n, t, seed=seed)
    assert ForestReconstructionProtocol().reconstruct(g) == g
