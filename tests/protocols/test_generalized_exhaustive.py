"""Section III.E over every labelled graph on at most five vertices.

For each ``k`` in ``{1, 2}`` and each of the 1,100 labelled graphs with
``n <= 5``, the nodes send the both-sides messages once; the referee must
return ``G`` exactly when ``generalized_degeneracy(G) <= k`` and raise
:class:`~repro.errors.RecognitionFailure` otherwise.  ``COUNTS`` pins how
many graphs were checked and how many were accepted per ``(k, n)``, so a
shrunken enumeration fails too.  ``k = 3`` would add nothing: every vertex
has ``min(d, n-1-d) <= 2`` when ``n <= 6``, so ``k = 2`` already accepts
every graph.  CI's ``test`` job runs :func:`check_generalized` at
``n = 6`` (65,536 graph/k pairs).

``generalized_degeneracy`` is itself checked against an oracle that does
not share its greedy argument: the minimum, over every vertex ordering, of
the largest ``min(d, co-degree)`` met while deleting in that order.
"""

from itertools import permutations

import pytest

from repro.errors import RecognitionFailure
from repro.graphs.counting import enumerate_labeled_graphs
from repro.protocols import GeneralizedDegeneracyProtocol
from repro.protocols.generalized_degeneracy import generalized_degeneracy

#: ``(k, n) -> (graphs checked, graphs accepted)``.
COUNTS = {
    (1, 0): (1, 1), (1, 1): (1, 1), (1, 2): (2, 2), (1, 3): (8, 8),
    (1, 4): (64, 64), (1, 5): (1024, 1012), (1, 6): (32768, 30144),
    (2, 0): (1, 1), (2, 1): (1, 1), (2, 2): (2, 2), (2, 3): (8, 8),
    (2, 4): (64, 64), (2, 5): (1024, 1024), (2, 6): (32768, 32768),
}


def check_generalized(n: int, k: int) -> tuple[int, int]:
    """Check Section III.E reconstruction on every graph on ``n`` vertices.

    Returns ``(checked, accepted)`` and asserts both against ``COUNTS``.
    """
    protocol = GeneralizedDegeneracyProtocol(k)
    checked = accepted = 0
    for g in enumerate_labeled_graphs(n):
        messages = protocol.message_vector(g)
        if generalized_degeneracy(g) <= k:
            assert protocol.global_(n, messages) == g, (k, sorted(g.edges()))
            accepted += 1
        else:
            with pytest.raises(RecognitionFailure):
                protocol.global_(n, messages)
        checked += 1
    assert (checked, accepted) == COUNTS[(k, n)]
    return checked, accepted


def brute_force_generalized_degeneracy(g) -> int:
    """Minimum over all deletion orders of the largest ``min(d, co-degree)``."""
    best = max(0, g.n - 1)
    for order in permutations(g.vertices()):
        remaining = set(order)
        worst = 0
        for x in order:
            d = len(g.neighbors(x) & remaining)
            worst = max(worst, min(d, len(remaining) - 1 - d))
            if worst >= best:
                break
            remaining.discard(x)
        best = min(best, worst)
    return best


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("k", [1, 2])
def test_generalized_on_every_small_graph(k, n):
    check_generalized(n, k)


@pytest.mark.parametrize("n", range(6))
def test_generalized_degeneracy_matches_brute_force(n):
    for g in enumerate_labeled_graphs(n):
        assert generalized_degeneracy(g) == brute_force_generalized_degeneracy(g), sorted(g.edges())
