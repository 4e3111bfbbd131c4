"""Graph predicates the paper reasons about.

These are the *ground truths* the experiments compare protocol outputs
against: triangle containment (Theorem 3), square/C4 containment
(Theorem 1), diameter (Theorem 2), connectivity and bipartiteness (the
conclusion's open questions), plus girth as a convenience for generating
square-free inputs.

All algorithms are elementary (BFS-based) and exact; they run on graphs up
to a few thousand vertices, which covers every experiment in the paper's
scope.
"""

from __future__ import annotations

import math
from collections import deque

from repro.graphs.labeled import LabeledGraph

__all__ = [
    "has_triangle",
    "has_square",
    "girth",
    "diameter",
    "is_connected",
    "connected_components",
    "is_bipartite",
    "bipartition",
]


def has_triangle(g: LabeledGraph) -> bool:
    """Whether ``g`` contains K3 as a subgraph."""
    for u, v in g.edges():
        if g.neighbors(u) & g.neighbors(v):
            return True
    return False


def has_square(g: LabeledGraph) -> bool:
    """Whether ``g`` contains C4 as a (not necessarily induced) subgraph.

    Two distinct vertices with two common neighbours close a 4-cycle; we
    look for a repeated pair among the two-paths, ``O(sum deg²)``.
    """
    seen: set[tuple[int, int]] = set()
    for v in g.vertices():
        nbrs = sorted(g.neighbors(v))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                pair = (nbrs[i], nbrs[j])
                if pair in seen:
                    return True
                seen.add(pair)
    return False


def girth(g: LabeledGraph) -> float:
    """Length of a shortest cycle, ``math.inf`` for forests.

    BFS from every vertex; a non-tree edge closing at depths d1, d2 bounds
    the girth by ``d1 + d2 + 1``.  Exact for simple graphs.
    """
    best = math.inf
    for root in g.vertices():
        depth = {root: 0}
        parent = {root: 0}
        q = deque([root])
        while q:
            u = q.popleft()
            if depth[u] * 2 >= best - 1:
                continue
            for w in g.neighbors(u):
                if w not in depth:
                    depth[w] = depth[u] + 1
                    parent[w] = u
                    q.append(w)
                elif w != parent[u]:
                    best = min(best, depth[u] + depth[w] + 1)
    return best


def _bfs_depths(g: LabeledGraph, root: int) -> dict[int, int]:
    depth = {root: 0}
    q = deque([root])
    while q:
        u = q.popleft()
        for w in g.neighbors(u):
            if w not in depth:
                depth[w] = depth[u] + 1
                q.append(w)
    return depth


def diameter(g: LabeledGraph) -> float:
    """Max distance between vertex pairs; ``math.inf`` if disconnected; 0 for n <= 1."""
    if g.n <= 1:
        return 0
    best = 0
    for v in g.vertices():
        depth = _bfs_depths(g, v)
        if len(depth) != g.n:
            return math.inf
        best = max(best, max(depth.values()))
    return best


def is_connected(g: LabeledGraph) -> bool:
    """Whether ``g`` is connected (the empty graph and K1 count as connected)."""
    if g.n <= 1:
        return True
    return len(_bfs_depths(g, 1)) == g.n


def connected_components(g: LabeledGraph) -> list[frozenset[int]]:
    """Connected components as frozensets, ordered by smallest member."""
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for v in g.vertices():
        if v not in seen:
            comp = frozenset(_bfs_depths(g, v))
            seen |= comp
            comps.append(comp)
    return comps


def bipartition(g: LabeledGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """A 2-colouring ``(A, B)`` if one exists, else ``None``.

    Every vertex appears in exactly one side; isolated vertices go to the
    side of their component's root colour (side A).
    """
    color: dict[int, int] = {}
    for root in g.vertices():
        if root in color:
            continue
        color[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            for w in g.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    q.append(w)
                elif color[w] == color[u]:
                    return None
    a = frozenset(v for v, c in color.items() if c == 0)
    b = frozenset(v for v, c in color.items() if c == 1)
    return a, b


def is_bipartite(g: LabeledGraph) -> bool:
    """Whether ``g`` admits a proper 2-colouring."""
    return bipartition(g) is not None
