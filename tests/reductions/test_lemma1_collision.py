"""Tests for Lemma 1's counting and the adversarial collision search."""

import math

import pytest

from repro.graphs import has_square, has_triangle
from repro.graphs.counting import bipartite_fixed_parts_count
from repro.graphs.generators import erdos_renyi, random_forest
from repro.protocols import DegreeProtocol, ForestReconstructionProtocol
from repro.reductions import (
    HashedNeighborhoodEncoder,
    find_collision_exhaustive,
    find_collision_sampled,
)


class TestLemma1Arithmetic:
    def test_bipartite_grows_quadratically(self):
        n = 128
        assert math.log2(bipartite_fixed_parts_count(n)) == (n // 2) ** 2


class TestCollisionSearch:
    """EXP-ADV: frugal candidate encoders vs the pigeonhole.

    The candidates are the protocols' own local functions.  Measured finding
    (recorded in EXPERIMENTS.md): the weakest encoders die at tiny n, while
    the Section III.A (id, degree, id-sum) message is collision-free through
    n = 7 — the paper's impossibility is *asymptotic*
    (collisions are forced once 2^{Θ(n^{3/2})} square-free graphs outnumber
    the 2^{O(n log n)} message vectors, far beyond enumeration range).
    """

    def test_degree_encoder_killed_exhaustively(self):
        w = find_collision_exhaustive(DegreeProtocol(), 5, has_square, "has_square")
        assert w is not None
        assert w.encoder == "degree"
        assert w.verify(DegreeProtocol(), has_square)

    def test_degree_encoder_survives_n4(self):
        """At n = 4 the labelled degree vector still pins down square-ness."""
        assert find_collision_exhaustive(DegreeProtocol(), 4, has_square) is None

    def test_degree_sum_encoder_survives_small_n(self):
        """The forest message — Algorithm 3 at k = 1, (deg, sum) plus the
        sender's ID — is square-rigid at enumerable sizes (n <= 6 here;
        n = 7 is certified by the vectorized bench)."""
        for n in (4, 5, 6):
            assert find_collision_exhaustive(
                ForestReconstructionProtocol(), n, has_square) is None

    def test_degree_encoder_collides_on_forests_with_equal_degrees(self):
        """Two different forests share a degree sequence, so no referee can
        tell them apart from degree messages alone."""
        from repro.graphs import LabeledGraph

        g1 = LabeledGraph(4, [(1, 2), (3, 4)])
        g2 = LabeledGraph(4, [(1, 3), (2, 4)])
        w = find_collision_sampled(DegreeProtocol(), [g1, g2], lambda g: g == g1, "is_g1")
        assert w is not None
        assert (w.g_with, w.g_without) == (g1, g2)
        assert w.verify(DegreeProtocol(), lambda g: g == g1)

    def test_degree_encoder_killed_on_triangles(self):
        w = find_collision_exhaustive(DegreeProtocol(), 5, has_triangle, "has_triangle")
        assert w is not None
        assert w.verify(DegreeProtocol(), has_triangle)

    def test_sampled_search_finds_hash_collision(self):
        def stream():
            s = 0
            while True:
                yield erdos_renyi(6, 0.4, seed=s)
                s += 1

        enc = HashedNeighborhoodEncoder(bits=1, salt=3)
        w = find_collision_sampled(enc, stream(), has_square, "has_square", max_samples=4000)
        assert w is not None
        assert w.verify(enc, has_square)

    def test_sampled_search_gives_up_gracefully(self):
        def stream():
            s = 0
            while True:
                yield random_forest(8, 2, seed=s)
                s += 1

        # forest messages are injective on forests (the protocol reconstructs
        # them!), so no collision exists in this stream
        w = find_collision_sampled(
            ForestReconstructionProtocol(), stream(), has_square, max_samples=300
        )
        assert w is None

    def test_hashed_encoder_with_tiny_digest_killed(self):
        w = find_collision_exhaustive(
            HashedNeighborhoodEncoder(bits=2, salt=7), 4, has_square, "has_square"
        )
        assert w is not None
        assert w.verify(HashedNeighborhoodEncoder(bits=2, salt=7), has_square)

    @pytest.mark.parametrize("n,i,neighborhood,acc", [
        (4, 1, (), 0x27EC),
        (4, 2, (1, 3), 0xB745),
        (70, 5, (1, 64, 70), 0xEEBC),  # mask spans two 64-bit chunks
        (70, 5, (1, 64), 0x418C),
    ])
    def test_hashed_encoder_golden_messages(self, n, i, neighborhood, acc):
        """Pinned digests: identical on every platform, word size and run."""
        msg = HashedNeighborhoodEncoder(bits=16, salt=7).local(n, i, frozenset(neighborhood))
        assert (msg.acc, msg.bits) == (acc, 16)

    def test_forced_collision_crossover_is_finite(self):
        """Lemma 1 + Kleitman–Winston: find the n where square-free graphs
        alone outnumber every possible 4-log-unit message vector — beyond
        that, ANY such encoder has a square-blind collision pair."""
        import math as _m

        from repro.graphs.counting import zarankiewicz_lower_bound

        def capacity(n):  # 4 log-units per node, the (deg, sum) budget
            return 4.0 * n * _m.log2(n)

        crossover = next(n for n in range(4, 100_000) if zarankiewicz_lower_bound(n) > capacity(n))
        assert 1_000 < crossover < 50_000  # finite but far beyond enumeration
