"""Tests for one-round sketch bipartiteness (the paper's second open question)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import LabeledGraph, connected_components, is_bipartite
from repro.graphs.generators import (
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    erdos_renyi,
    grid_2d,
    path_graph,
    random_bipartite,
    random_tree,
)
from repro.sketching.bipartiteness import (
    SketchBipartitenessProtocol,
    double_cover_components,
)

from stat_gates import SEEDS, within_documented_rate


class TestDoubleCoverReference:
    def test_even_cycle_lifts_to_two_cycles(self):
        g = cycle_graph(6)
        assert double_cover_components(6, g.edges()) == 2

    def test_odd_cycle_lifts_to_one_cycle(self):
        g = cycle_graph(5)
        assert double_cover_components(5, g.edges()) == 1

    def test_identity_cc_dc_vs_bipartite(self):
        for seed in range(10):
            g = erdos_renyi(10, 0.3, seed=seed)
            cc = len(connected_components(g))
            dc = double_cover_components(g.n, g.edges())
            # per-component: bipartite comp -> 2 lifts, odd comp -> 1
            assert (dc == 2 * cc) == is_bipartite(g)


class TestSketchBipartiteness:
    @pytest.mark.parametrize("gen", [
        lambda: complete_bipartite(4, 5),
        lambda: grid_2d(4, 4),
        lambda: cycle_graph(8),
        lambda: path_graph(10),
        lambda: random_tree(12, seed=2),
        lambda: random_bipartite(5, 5, 0.5, seed=3),
        lambda: cycle_graph(24),
    ])
    def test_accepts_bipartite(self, gen):
        g = gen()
        assert SketchBipartitenessProtocol(seed=4).decide(g) is True

    @pytest.mark.parametrize("gen", [
        lambda: cycle_graph(5),
        lambda: cycle_graph(9),
        lambda: LabeledGraph(4, [(1, 2), (2, 3), (1, 3)]),  # triangle + isolate
    ])
    def test_rejects_odd_cycles(self, gen):
        g = gen()
        assert SketchBipartitenessProtocol(seed=4).decide(g) is False

    def test_disconnected_mixed(self):
        # one bipartite component + one odd cycle: not bipartite
        g = disjoint_union(path_graph(4), cycle_graph(5))
        assert SketchBipartitenessProtocol(seed=1).decide(g) is False

    def test_edgeless_and_tiny(self):
        assert SketchBipartitenessProtocol().decide(LabeledGraph(1)) is True
        assert SketchBipartitenessProtocol().decide(LabeledGraph(5)) is True

    def test_report_fields(self):
        g = cycle_graph(6)
        p = SketchBipartitenessProtocol(seed=9)
        report = p.decode_and_solve(g.n, p.message_vector(g))
        assert report.bipartite is True
        assert report.components_g == 1
        assert report.components_double_cover == 2
        assert report.bits_per_node > 0

    @staticmethod
    def _failures(g):
        truth = is_bipartite(g)
        return sum(SketchBipartitenessProtocol(seed=s).decide(g) != truth for s in range(SEEDS))

    def test_accuracy_across_seeds(self):
        """The documented failure probability, gated statistically on a
        non-bipartite input: the exact 99% upper confidence bound on the
        wrong-answer rate over 160 public seeds must not exceed 5%."""
        g = erdos_renyi(16, 0.15, seed=11)
        assert not is_bipartite(g)
        assert within_documented_rate(self._failures(g))

    def test_accuracy_across_seeds_on_bipartite_input(self):
        """The same gate on a bipartite input: the error runs both ways."""
        g = grid_2d(4, 4)
        assert is_bipartite(g)
        assert within_documented_rate(self._failures(g))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 14), p=st.floats(0, 0.4), seed=st.integers(0, 300))
def test_sketch_bipartiteness_mostly_correct(n, p, seed):
    """Property: matches ground truth except for rare sketch failures."""
    g = erdos_renyi(n, p, seed=seed)
    votes = [SketchBipartitenessProtocol(seed=s).decide(g) for s in (1, 2, 3)]
    # majority of three independent runs matches the truth
    assert (sum(votes) >= 2) == is_bipartite(g)
