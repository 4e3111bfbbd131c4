"""Pinned edge sets of ``random_k_degenerate``.

The generator's RNG call order (``shuffle``, then ``randint`` when not
``exact``, then ``sample``) fixes every graph it builds, and through them
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
    (0, 0, True): "2d8c7e7b69220f31",
    (0, 1, True): "2d8c7e7b69220f31",
    (0, 2, True): "2d8c7e7b69220f31",
    (0, 3, True): "2d8c7e7b69220f31",
    (1, 0, True): "93f46bfcbd4be65a",
    (1, 1, True): "93f46bfcbd4be65a",
    (1, 2, True): "93f46bfcbd4be65a",
    (1, 3, True): "93f46bfcbd4be65a",
    (2, 0, True): "5b72c0bad4907393",
    (2, 1, True): "124c33d562d942d5",
    (2, 2, True): "124c33d562d942d5",
    (2, 3, True): "124c33d562d942d5",
    (7, 0, True): "56f683dc238a2c37",
    (7, 1, True): "cda053d94838fc13",
    (7, 2, True): "25475dafcb96b3c3",
    (7, 3, True): "eeeab7065e1c3bf5",
    (64, 0, True): "e18980ad975bdde3",
    (64, 1, True): "9da5d0cfe49ac119",
    (64, 2, True): "5967e3dbdcef85e4",
    (64, 3, True): "f7213e34d4e2800d",
    (300, 0, True): "9e5b54afebe88304",
    (300, 1, True): "539127dfc2be2b9c",
    (300, 2, True): "9c258e8344026801",
    (300, 3, True): "5bc326a061fd58c2",
    (0, 0, False): "2d8c7e7b69220f31",
    (0, 1, False): "2d8c7e7b69220f31",
    (0, 2, False): "2d8c7e7b69220f31",
    (0, 3, False): "2d8c7e7b69220f31",
    (1, 0, False): "93f46bfcbd4be65a",
    (1, 1, False): "93f46bfcbd4be65a",
    (1, 2, False): "93f46bfcbd4be65a",
    (1, 3, False): "93f46bfcbd4be65a",
    (2, 0, False): "5b72c0bad4907393",
    (2, 1, False): "9e92ea8a7a2660e8",
    (2, 2, False): "9e92ea8a7a2660e8",
    (2, 3, False): "9e92ea8a7a2660e8",
    (7, 0, False): "56f683dc238a2c37",
    (7, 1, False): "706d2f84afeb6fb7",
    (7, 2, False): "93e593e4d15d6b27",
    (7, 3, False): "dcb76f53b4ed1afb",
    (64, 0, False): "e18980ad975bdde3",
    (64, 1, False): "8635c460f77c3989",
    (64, 2, False): "5e07588dd7dbd587",
    (64, 3, False): "6b171c9397b1a5e0",
    (300, 0, False): "9e5b54afebe88304",
    (300, 1, False): "fbd61f2e5d96d865",
    (300, 2, False): "45061eba5cca1931",
    (300, 3, False): "4c6a47ad0d632190",
}


@pytest.mark.parametrize("n, k, exact", sorted(PINS))
def test_random_k_degenerate_edge_sets_are_pinned(n, k, exact):
    h = hashlib.sha256()
    for seed in SEEDS:
        g = random_k_degenerate(n, k, seed=seed, exact=exact)
        edges = list(g.edges())
        assert g.n == n
        assert g.m == len(edges)
        for v in g.vertices():
            for u in g.neighbors(v):
                assert u != v and 1 <= u <= n
                assert v in g.neighbors(u)
        assert sum(g.degrees()) == 2 * g.m
        h.update((f"{n};" + ";".join(f"{u},{v}" for u, v in edges) + "|").encode())
    assert h.hexdigest()[:16] == PINS[(n, k, exact)]


def test_negative_n_is_refused_like_the_graph_constructor():
    with pytest.raises(InvalidVertexError, match="n must be >= 0"):
        random_k_degenerate(-1, 2, seed=0)
