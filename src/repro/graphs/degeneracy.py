"""Degeneracy orderings (Definition 2 of the paper).

A graph has degeneracy ``k`` when its vertices admit an elimination order
``r_1, ..., r_n`` such that each ``r_i`` has at most ``k`` neighbours among
``{r_1, ..., r_{i-1}}`` — equivalently, repeatedly deleting a minimum-degree
vertex never meets degree above ``k``.  The paper's reconstruction protocol
(Theorem 5) works for exactly these graphs, and the referee *discovers* the
order while decoding; these functions give the ground truth the experiments
compare against.

The implementation is the Matula–Beck bucket algorithm, ``O(n + m)``.
"""

from __future__ import annotations

from repro.graphs.labeled import LabeledGraph

__all__ = ["degeneracy", "degeneracy_ordering", "core_numbers"]


def degeneracy(g: LabeledGraph) -> int:
    """The degeneracy of ``g`` (0 for the empty/edgeless graph)."""
    k, _ = degeneracy_ordering(g)
    return k


def degeneracy_ordering(g: LabeledGraph) -> tuple[int, list[int]]:
    """Return ``(k, order)`` where ``order`` is a degeneracy elimination order.

    ``order`` lists vertices in *removal* order: each vertex has at most
    ``k`` neighbours among the vertices after it... precisely, at most ``k``
    neighbours *not yet removed* at its turn, which matches Definition 2
    read right-to-left (the paper's ``r_1..r_n`` is our order reversed).
    """
    core = _peel(g)
    return max(core.values(), default=0), list(core)


def core_numbers(g: LabeledGraph) -> dict[int, int]:
    """Core number of each vertex (max k such that v lies in the k-core)."""
    return _peel(g)


def _peel(g: LabeledGraph) -> dict[int, int]:
    """Matula–Beck: ``{vertex: core number}`` in removal order.

    Repeatedly removes a vertex of minimum current degree from degree
    buckets; a vertex's core number is the largest minimum degree met up
    to its removal.
    """
    core: dict[int, int] = {}
    if g.n == 0:
        return core
    deg = {v: g.degree(v) for v in g.vertices()}
    buckets: list[set[int]] = [set() for _ in range(max(deg.values()) + 1)]
    for v, d in deg.items():
        buckets[d].add(v)
    current = 0
    cursor = 0
    for _ in range(g.n):
        while not buckets[cursor]:
            cursor += 1
        v = buckets[cursor].pop()
        current = max(current, cursor)
        core[v] = current
        for w in g.neighbors(v):
            if w not in core:
                buckets[deg[w]].discard(w)
                deg[w] -= 1
                buckets[deg[w]].add(w)
        # degree of some neighbour may have dropped below the cursor
        cursor = max(0, cursor - 1)
    return core
