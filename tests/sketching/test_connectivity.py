"""Tests for AGM sketch connectivity (one-round and multi-round)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import LabeledGraph, is_connected
from repro.graphs.generators import (
    cycle_graph,
    disjoint_union,
    erdos_renyi,
    path_graph,
    random_tree,
    star_graph,
)
from repro.model import MultiRoundReferee, Referee, log2_ceil
from repro.sketching import (
    AGMConnectivityProtocol,
    MultiRoundSketchConnectivity,
    sketch_spanning_forest,
)
from repro.sketching.connectivity import edge_index, edge_pair

from stat_gates import SEEDS, clopper_pearson_upper, within_documented_rate


def test_clopper_pearson_upper_matches_closed_form():
    # With zero failures the bound solves (1 - p)^n = alpha exactly.
    assert clopper_pearson_upper(0, 200, confidence=0.99) == \
        pytest.approx(1 - 0.01 ** (1 / 200), rel=1e-9)
    assert clopper_pearson_upper(0, 160, confidence=0.99) < 0.05
    assert clopper_pearson_upper(20, 160, confidence=0.99) > 0.05
    assert within_documented_rate(0) and not within_documented_rate(20)


class TestEdgeIndexing:
    def test_roundtrip_all_pairs(self):
        n = 9
        seen = set()
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                idx = edge_index(n, u, v)
                assert edge_pair(n, idx) == (u, v)
                seen.add(idx)
        assert seen == set(range(n * (n - 1) // 2))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            edge_index(5, 3, 3)
        with pytest.raises(ValueError):
            edge_index(5, 0, 2)
        with pytest.raises(ValueError):
            edge_pair(5, 10)
        with pytest.raises(ValueError):
            edge_pair(5, -1)
        with pytest.raises(ValueError):
            edge_pair(1, 0)

    @pytest.mark.parametrize("n", [2, 3, 1024, 1 << 16])
    def test_roundtrip_row_boundaries(self, n):
        """The closed-form inverse at the first and last slot of every row."""
        for u in range(1, n):
            for v in (u + 1, n):
                assert edge_pair(n, edge_index(n, u, v)) == (u, v)
        assert edge_index(n, 1, 2) == 0
        assert edge_index(n, n - 1, n) == n * (n - 1) // 2 - 1
        with pytest.raises(ValueError):
            edge_pair(n, n * (n - 1) // 2)


class TestOneRoundConnectivity:
    @pytest.mark.parametrize("gen", [
        lambda: path_graph(16),
        lambda: cycle_graph(15),
        lambda: star_graph(20),
        lambda: random_tree(24, seed=3),
        lambda: erdos_renyi(20, 0.3, seed=1),
        lambda: random_tree(64, seed=10),
    ])
    def test_connected_graphs_accepted(self, gen):
        g = gen()
        if not is_connected(g):
            pytest.skip("generator produced disconnected instance")
        assert AGMConnectivityProtocol(seed=5).decide(g) is True

    def test_disconnected_graphs_rejected(self):
        g = disjoint_union(path_graph(6), cycle_graph(5))
        assert AGMConnectivityProtocol(seed=5).decide(g) is False

    def test_isolated_vertices(self):
        g = LabeledGraph(8, [(1, 2), (2, 3)])
        assert AGMConnectivityProtocol(seed=1).decide(g) is False

    def test_edgeless_and_tiny(self):
        assert AGMConnectivityProtocol().decide(LabeledGraph(1)) is True
        assert AGMConnectivityProtocol().decide(LabeledGraph(3)) is False
        assert AGMConnectivityProtocol().decide(LabeledGraph(2, [(1, 2)])) is True

    def test_report_forest_is_spanning_when_connected(self):
        g = random_tree(18, seed=7)
        report = sketch_spanning_forest(g, seed=2)
        assert report.connected
        # the reported forest's edges are genuine and span
        forest = LabeledGraph(g.n, report.forest_edges)
        assert is_connected(forest)
        for u, v in report.forest_edges:
            assert g.has_edge(u, v)  # no forged edges (fingerprint held)

    def test_report_pins_the_boruvka_forest(self):
        """The exact forest and message size for one fixed tree and seed,
        so a sketch change that alters what Borůvka recovers shows here."""
        report = sketch_spanning_forest(random_tree(28, seed=3), seed=1)
        assert report.connected
        assert report.bits_per_node == 9840
        assert report.forest_edges == (
            (1, 19), (1, 27), (2, 8), (3, 17), (3, 20), (4, 19), (5, 10),
            (5, 12), (6, 18), (7, 8), (7, 23), (8, 24), (9, 18), (9, 22),
            (11, 20), (12, 16), (13, 16), (13, 21), (14, 21), (15, 19),
            (16, 18), (16, 20), (16, 23), (18, 25), (18, 27), (21, 28),
            (26, 27),
        )

    def test_no_false_connected_across_seeds(self):
        """One-sided error: a disconnected graph is NEVER called connected."""
        g = disjoint_union(cycle_graph(6), cycle_graph(6))
        for seed in range(20):
            assert AGMConnectivityProtocol(seed=seed).decide(g) is False

    def test_success_rate_across_seeds(self):
        """The documented failure probability, gated statistically: the
        exact 99% upper confidence bound on the false-"disconnected" rate
        over 160 public seeds must not exceed 5%."""
        g = erdos_renyi(24, 0.2, seed=9)
        assert is_connected(g)
        failures = sum(not AGMConnectivityProtocol(seed=s).decide(g) for s in range(SEEDS))
        assert within_documented_rate(failures)

    def test_bits_are_polylog(self):
        """O(log³ n) bits per node: ratio to log³ stays bounded as n grows."""
        ratios = []
        for n in (16, 32, 64, 128):
            g = random_tree(n, seed=n)
            p = AGMConnectivityProtocol(seed=1)
            bits = p.max_message_bits(g)
            ratios.append(bits / log2_ceil(n) ** 3)
        # the constant is large (61-bit fingerprints per level) but bounded,
        # and the ratio must not grow with n — that is the O(log³ n) shape
        assert max(ratios) <= 120.0
        assert ratios == sorted(ratios, reverse=True)

    def test_referee_run_report(self):
        g = path_graph(12)
        report = Referee().run(AGMConnectivityProtocol(seed=3), g)
        assert report.output is True
        assert report.max_message_bits > 0


class TestMultiRoundConnectivity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_one_round(self, seed):
        for gen_seed in range(4):
            g = erdos_renyi(14, 0.25, seed=gen_seed)
            one = AGMConnectivityProtocol(seed=seed).decide(g)
            multi = MultiRoundReferee().run(MultiRoundSketchConnectivity(seed=seed), g)
            assert multi.output == one

    def test_per_round_message_smaller_than_one_round(self):
        """The whole point: each round's message is one log-factor lighter."""
        g = random_tree(64, seed=4)
        one_round_bits = AGMConnectivityProtocol(seed=1).max_message_bits(g)
        report = MultiRoundReferee().run(MultiRoundSketchConnectivity(seed=1), g)
        assert report.max_node_message_bits < one_round_bits
        # ratio ~ number of Borůvka rounds
        assert report.max_node_message_bits * 2 <= one_round_bits

    def test_early_output_when_connected_quickly(self):
        g = star_graph(16)  # one Borůvka phase suffices
        report = MultiRoundReferee().run(MultiRoundSketchConnectivity(seed=0), g)
        assert report.output is True
        assert report.rounds_used <= 3

    def test_disconnected(self):
        g = disjoint_union(path_graph(5), path_graph(5))
        report = MultiRoundReferee().run(MultiRoundSketchConnectivity(seed=0), g)
        assert report.output is False

    def test_success_rate_across_seeds(self):
        """The documented failure probability, gated statistically: the
        exact 99% upper confidence bound on the false-"disconnected" rate
        over 160 public seeds must not exceed 5%."""
        g = erdos_renyi(24, 0.2, seed=9)
        assert is_connected(g)
        failures = sum(
            MultiRoundReferee().run(MultiRoundSketchConnectivity(seed=s), g).output is not True
            for s in range(SEEDS)
        )
        assert within_documented_rate(failures)

    def test_tiny_graphs(self):
        report = MultiRoundReferee().run(MultiRoundSketchConnectivity(), LabeledGraph(1))
        assert report.output is True


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 20), p=st.floats(0, 0.5), seed=st.integers(0, 500))
def test_sketch_connectivity_one_sided_property(n, p, seed):
    """Property: never claims connected on a disconnected graph; usually right overall."""
    g = erdos_renyi(n, p, seed=seed)
    out = AGMConnectivityProtocol(seed=seed + 1).decide(g)
    if not is_connected(g):
        assert out is False
