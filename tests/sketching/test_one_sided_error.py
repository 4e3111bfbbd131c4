"""Seeded sweep of the AGM sketches' one-sided error on split inputs.

A sampler failure only leaves components unmerged, and a fingerprinted
sample is a genuine boundary edge, so the shared Borůvka can over-count
components but never under-count them.  Over every (graph seed, sketch
seed) point below: no split input is called connected, and the
bipartiteness counts never drop below the true ``cc(G)`` and
``cc(DC(G))``.
"""

import itertools

import pytest

from repro import registry
from repro.graphs import connected_components
from repro.model import MultiRoundReferee
from repro.sketching import (
    AGMConnectivityProtocol,
    MultiRoundSketchConnectivity,
    SketchBipartitenessProtocol,
)
from repro.sketching.bipartiteness import double_cover_components

SIZES = (12, 20)
GRAPH_SEEDS = range(5)
SKETCH_SEEDS = range(5)
POINTS = list(itertools.product(SIZES, GRAPH_SEEDS, SKETCH_SEEDS))


def _split(n: int, graph_seed: int):
    return registry.GRAPH_FAMILY.build("two_components", n, graph_seed)


def test_sweep_has_at_least_fifty_points():
    assert len(POINTS) >= 50


@pytest.mark.parametrize("n", SIZES)
def test_split_inputs_are_never_reported_connected(n):
    for graph_seed, sketch_seed in itertools.product(GRAPH_SEEDS, SKETCH_SEEDS):
        g = _split(n, graph_seed)
        assert len(connected_components(g)) == 2
        protocol = AGMConnectivityProtocol(seed=sketch_seed)
        one_round = protocol.decode_and_solve(n, protocol.message_vector(g))
        assert one_round.connected is False, (graph_seed, sketch_seed)
        assert len(one_round.forest_edges) <= n - 2
        streamed = MultiRoundReferee().run(MultiRoundSketchConnectivity(seed=sketch_seed), g)
        assert streamed.output is False, (graph_seed, sketch_seed)


@pytest.mark.parametrize("n", SIZES)
def test_bipartiteness_counts_never_fall_below_the_truth(n):
    for graph_seed, sketch_seed in itertools.product(GRAPH_SEEDS, SKETCH_SEEDS):
        g = _split(n, graph_seed)
        protocol = SketchBipartitenessProtocol(seed=sketch_seed)
        report = protocol.decode_and_solve(g.n, protocol.message_vector(g))
        point = (graph_seed, sketch_seed)
        assert report.components_g >= len(connected_components(g)), point
        assert report.components_double_cover >= double_cover_components(n, g.edges()), point
