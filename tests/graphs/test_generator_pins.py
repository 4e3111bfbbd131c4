"""Pinned edge sets of ``random_k_degenerate``.

The generator's RNG call order (``shuffle``, then one ``sample`` per
vertex) fixes every graph it builds, and through them
every Theorem 5 record digest.  Each pin is the sha256 (first 16 hex) of
the edge lists of the three seeds below; the graphs are also checked for
a consistent edge count and a symmetric, loop-free adjacency, which
``LabeledGraph._from_adjacency`` does not check itself.
"""

import hashlib

import pytest

from repro.errors import InvalidVertexError
from repro.graphs.generators import random_k_degenerate

SEEDS = (0, 1, 7)

PINS = {
    (0, 0): "2d8c7e7b69220f31",
    (0, 1): "2d8c7e7b69220f31",
    (0, 2): "2d8c7e7b69220f31",
    (0, 3): "2d8c7e7b69220f31",
    (1, 0): "93f46bfcbd4be65a",
    (1, 1): "93f46bfcbd4be65a",
    (1, 2): "93f46bfcbd4be65a",
    (1, 3): "93f46bfcbd4be65a",
    (2, 0): "5b72c0bad4907393",
    (2, 1): "124c33d562d942d5",
    (2, 2): "124c33d562d942d5",
    (2, 3): "124c33d562d942d5",
    (7, 0): "56f683dc238a2c37",
    (7, 1): "cda053d94838fc13",
    (7, 2): "25475dafcb96b3c3",
    (7, 3): "eeeab7065e1c3bf5",
    (64, 0): "e18980ad975bdde3",
    (64, 1): "9da5d0cfe49ac119",
    (64, 2): "5967e3dbdcef85e4",
    (64, 3): "f7213e34d4e2800d",
    (300, 0): "9e5b54afebe88304",
    (300, 1): "539127dfc2be2b9c",
    (300, 2): "9c258e8344026801",
    (300, 3): "5bc326a061fd58c2",
}


@pytest.mark.parametrize("n, k", sorted(PINS))
def test_random_k_degenerate_edge_sets_are_pinned(n, k):
    h = hashlib.sha256()
    for seed in SEEDS:
        g = random_k_degenerate(n, k, seed=seed)
        edges = list(g.edges())
        assert g.n == n
        assert g.m == len(edges)
        for v in g.vertices():
            for u in g.neighbors(v):
                assert u != v and 1 <= u <= n
                assert v in g.neighbors(u)
        assert sum(g.degrees()) == 2 * g.m
        h.update((f"{n};" + ";".join(f"{u},{v}" for u, v in edges) + "|").encode())
    assert h.hexdigest()[:16] == PINS[(n, k)]


def test_negative_n_is_refused_like_the_graph_constructor():
    with pytest.raises(InvalidVertexError, match="n must be >= 0"):
        random_k_degenerate(-1, 2, seed=0)
