"""Every labelled graph on n <= 5 vertices, each predicate checked against networkx.

The hypothesis tests in ``test_properties.py`` and ``test_degeneracy.py``
sample random graphs; these walk all ``2^C(n,2)`` of them, so a small
corner case (an isolated vertex, two components, a single edge) cannot be
missed by chance.
"""

import math

import networkx as nx
import pytest

from repro.graphs import (
    bipartition,
    connected_components,
    core_numbers,
    degeneracy,
    degeneracy_ordering,
    diameter,
    girth,
    has_square,
    has_triangle,
    is_bipartite,
    is_connected,
)
from repro.graphs.counting import enumerate_labeled_graphs

SIZES = [1, 2, 3, 4, 5]


def _pairs(n):
    for g in enumerate_labeled_graphs(n):
        yield g, g.to_networkx()


@pytest.mark.parametrize("n", SIZES)
def test_degeneracy_ordering(n):
    """Definition 2: each vertex has <= k neighbours not yet removed, and k is least."""
    for g, h in _pairs(n):
        k, order = degeneracy_ordering(g)
        assert sorted(order) == list(g.vertices()), g
        remaining = set(g.vertices())
        for v in order:
            remaining.discard(v)
            assert len(g.neighbors(v) & remaining) <= k, (g, v)
        assert k == degeneracy(g) == max(nx.core_number(h).values()), g


@pytest.mark.parametrize("n", SIZES)
def test_core_numbers(n):
    for g, h in _pairs(n):
        assert core_numbers(g) == nx.core_number(h), g


@pytest.mark.parametrize("n", SIZES)
def test_girth(n):
    for g, h in _pairs(n):
        assert girth(g) == nx.girth(h), g


@pytest.mark.parametrize("n", SIZES)
def test_diameter(n):
    for g, h in _pairs(n):
        expected = nx.diameter(h) if nx.is_connected(h) else math.inf
        assert diameter(g) == expected, g


@pytest.mark.parametrize("n", SIZES)
def test_connected_components(n):
    for g, h in _pairs(n):
        expected = sorted((frozenset(c) for c in nx.connected_components(h)), key=min)
        assert connected_components(g) == expected, g
        assert is_connected(g) == nx.is_connected(h), g


@pytest.mark.parametrize("n", SIZES)
def test_bipartition(n):
    for g, h in _pairs(n):
        parts = bipartition(g)
        assert (parts is not None) == is_bipartite(g) == nx.is_bipartite(h), g
        if parts is None:
            continue
        a, b = parts
        assert a | b == set(g.vertices()) and not a & b, g
        assert all((u in a) != (v in a) for u, v in g.edges()), g


@pytest.mark.parametrize("n", SIZES)
def test_triangle_and_square(n):
    for g, h in _pairs(n):
        lengths = {len(c) for c in nx.simple_cycles(h, length_bound=4)}
        assert has_triangle(g) == (3 in lengths), g
        assert has_square(g) == (4 in lengths), g
