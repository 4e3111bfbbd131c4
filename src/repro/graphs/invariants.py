"""Treewidth, exact for small n.

Section III's reach claims lean on the chain
``degeneracy(G) ≤ treewidth(G)`` (k-trees are the maximal treewidth-k
graphs): the reconstruction protocol covers every bounded-treewidth class.
The tests *verify* that chain instead of assuming it with
:func:`treewidth_exact`, the Bodlaender–Koster subset dynamic
program over elimination orders, ``O(2^n · n²)``, guarded to small n.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import GraphError
from repro.graphs.labeled import LabeledGraph

__all__ = ["treewidth_exact"]

_MAX_EXACT_N = 14


def treewidth_exact(g: LabeledGraph) -> int:
    """Exact treewidth via DP over vertex subsets (elimination orderings).

    Recurrence (Bodlaender & Koster, *Treewidth computations I*): for a set
    ``S`` of already-eliminated vertices,
    ``TW(S) = min_{v ∈ S} max(TW(S \\ v), q(S \\ v, v))`` where
    ``q(S, v)`` counts the vertices outside ``S ∪ {v}`` reachable from
    ``v`` through ``S`` — i.e. ``v``'s degree at its elimination point in
    the fill-in graph.  ``TW(V)`` is the treewidth.
    """
    n = g.n
    if n > _MAX_EXACT_N:
        raise GraphError(f"exact treewidth limited to n <= {_MAX_EXACT_N}, got {n}")
    if n == 0:
        return 0
    masks = [0] * (n + 1)
    for v in g.vertices():
        masks[v] = g.neighborhood_mask(v) >> 1  # bit i-1 <-> vertex i

    full = (1 << n) - 1

    def q(s: int, v: int) -> int:
        """|vertices outside s∪{v} reachable from v through s|."""
        vbit = 1 << (v - 1)
        seen = vbit
        frontier = vbit
        reach_out = 0
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= masks[b.bit_length()]
            nxt &= ~seen
            reach_out |= nxt & ~s
            frontier = nxt & s  # continue walking only through S
            seen |= nxt
        return bin(reach_out & ~vbit).count("1")

    @lru_cache(maxsize=None)
    def tw(s: int) -> int:
        if s == 0:
            return -1  # identity for max()
        best = n
        rest = s
        while rest:
            b = rest & -rest
            rest ^= b
            v = b.bit_length()
            prev = s ^ b
            cand = max(tw(prev), q(prev, v))
            if cand < best:
                best = cand
        return best

    result = tw(full)
    tw.cache_clear()
    return result
