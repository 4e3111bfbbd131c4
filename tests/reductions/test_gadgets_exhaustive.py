"""Theorems 1–3's gadgets over every labelled graph on at most five vertices.

For each labelled graph G with ``n <= 5`` and each pair ``s < t``:

* Theorem 1: if G is square-free, ``square_gadget(G, s, t)`` has a C4
  iff ``{s, t} ∈ E``;
* Theorem 3: if G is triangle-free, ``triangle_gadget(G, s, t)`` has a
  triangle iff ``{s, t} ∈ E``;
* Theorem 2: for every G, ``diameter(diameter_gadget(G, s, t)) <= 3``
  iff ``{s, t} ∈ E``.

``COUNTS`` pins, per ``(theorem, n)``, how many ``(G, s, t)`` cases were
checked and in how many ``{s, t}`` was an edge, so a shrunken enumeration
or a wrong side condition fails too.  CI's ``test`` job runs
:func:`check_gadgets` at ``n = 6``.
"""

import pytest

from repro.graphs import diameter, has_square, has_triangle
from repro.graphs.counting import enumerate_labeled_graphs
from repro.reductions import diameter_gadget, square_gadget, triangle_gadget

#: ``(theorem, n) -> (cases checked, cases with {s, t} ∈ E)``.
COUNTS = {
    ("square", 2): (2, 1), ("square", 3): (24, 12), ("square", 4): (324, 144),
    ("square", 5): (5480, 2140), ("square", 6): (119760, 41790),
    ("triangle", 2): (2, 1), ("triangle", 3): (21, 9), ("triangle", 4): (246, 96),
    ("triangle", 5): (3880, 1410), ("triangle", 6): (86835, 29805),
    ("diameter", 2): (2, 1), ("diameter", 3): (24, 12), ("diameter", 4): (384, 192),
    ("diameter", 5): (10240, 5120), ("diameter", 6): (491520, 245760),
}


def check_gadgets(n: int) -> dict[str, tuple[int, int]]:
    """Check the three gadgets' iff-properties on every graph on ``n`` vertices.

    Returns ``{theorem: (checked, adjacent)}`` and asserts each against
    ``COUNTS``.
    """
    tally = {"square": [0, 0], "triangle": [0, 0], "diameter": [0, 0]}
    pairs = [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)]
    for g in enumerate_labeled_graphs(n):
        square_free, triangle_free = not has_square(g), not has_triangle(g)
        for s, t in pairs:
            edge = g.has_edge(s, t)
            cases = [("diameter", diameter(diameter_gadget(g, s, t)) <= 3)]
            if square_free:
                cases.append(("square", has_square(square_gadget(g, s, t))))
            if triangle_free:
                cases.append(("triangle", has_triangle(triangle_gadget(g, s, t))))
            for theorem, holds in cases:
                assert holds == edge, (theorem, s, t, sorted(g.edges()))
                tally[theorem][0] += 1
                tally[theorem][1] += edge
    counts = {theorem: tuple(c) for theorem, c in tally.items()}
    for theorem, c in counts.items():
        assert c == COUNTS[(theorem, n)], (theorem, n, c)
    return counts


@pytest.mark.parametrize("n", range(2, 6))
def test_gadgets_on_every_small_graph(n):
    check_gadgets(n)
