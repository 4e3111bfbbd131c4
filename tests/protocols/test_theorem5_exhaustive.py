"""Theorem 5 over every labelled graph on at most five vertices.

For each ``k`` in ``{1, 2, 3}`` and each of the 1,100 labelled graphs with
``n <= 5``, the nodes send Algorithm 3's messages once; recognition must
answer ``degeneracy(G) <= k``, and whenever it does, reconstruction from
the same messages must return ``G`` exactly.  ``COUNTS`` pins how many
graphs were checked and how many were accepted per ``(k, n)``, so a
shrunken enumeration fails too.  CI's ``test`` job runs
:func:`check_theorem5` at ``n = 6`` (33,868 graphs over the three ``k``).
"""

import pytest

from repro.graphs import degeneracy
from repro.graphs.counting import enumerate_labeled_graphs
from repro.protocols import DegeneracyReconstructionProtocol, DegeneracyRecognitionProtocol

#: ``(k, n) -> (graphs checked, graphs accepted)``.
COUNTS = {
    (1, 0): (1, 1), (1, 1): (1, 1), (1, 2): (2, 2), (1, 3): (8, 7),
    (1, 4): (64, 38), (1, 5): (1024, 291), (1, 6): (32768, 2932),
    (2, 0): (1, 1), (2, 1): (1, 1), (2, 2): (2, 2), (2, 3): (8, 8),
    (2, 4): (64, 63), (2, 5): (1024, 943), (2, 6): (32768, 25324),
    (3, 0): (1, 1), (3, 1): (1, 1), (3, 2): (2, 2), (3, 3): (8, 8),
    (3, 4): (64, 64), (3, 5): (1024, 1023), (3, 6): (32768, 32536),
}


def check_theorem5(n: int, k: int) -> tuple[int, int]:
    """Check recognition and reconstruction on every graph on ``n`` vertices.

    Returns ``(checked, accepted)`` and asserts both against ``COUNTS``.
    """
    recognize = DegeneracyRecognitionProtocol(k)
    rebuild = DegeneracyReconstructionProtocol(k)
    checked = accepted = 0
    for g in enumerate_labeled_graphs(n):
        messages = recognize.message_vector(g)
        answer = recognize.global_(n, messages)
        assert answer == (degeneracy(g) <= k), (k, sorted(g.edges()))
        if answer:
            assert rebuild.global_(n, messages) == g, (k, sorted(g.edges()))
            accepted += 1
        checked += 1
    assert (checked, accepted) == COUNTS[(k, n)]
    return checked, accepted


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_theorem5_on_every_small_graph(k, n):
    check_theorem5(n, k)
