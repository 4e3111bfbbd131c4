"""Counting labelled graph families — the arithmetic behind Lemma 1.

Lemma 1 says a family reconstructible by a frugal one-round protocol has at
most ``2^{O(n log n)}`` members on ``n`` vertices.  The impossibility proofs
then exhibit families that are *too big*: all graphs (``2^{C(n,2)}``,
Theorem 2), bipartite graphs with fixed parts (``2^{(n/2)^2}``, Theorem 3),
and square-free graphs (``2^{Θ(n^{3/2})}`` by Kleitman–Winston, Theorem 1).

This module provides exact counts (closed forms where they exist, exhaustive
enumeration otherwise — vectorized over big-int edge columns up to n = 7), and
the capacity bound they are compared against.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import combinations

from repro.errors import GraphError
from repro.graphs.labeled import LabeledGraph

__all__ = [
    "labeled_graph_count",
    "labeled_tree_count",
    "labeled_forest_count",
    "bipartite_fixed_parts_count",
    "enumerate_labeled_graphs",
    "count_square_free",
    "frugal_capacity_bits",
    "zarankiewicz_lower_bound",
    "MAX_ENUM_N",
]

MAX_ENUM_N = 7
"""Largest n for which exhaustive enumeration is allowed (2^21 graphs)."""


def labeled_graph_count(n: int) -> int:
    """Number of labelled graphs on ``n`` vertices: ``2^C(n,2)``."""
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    return 1 << math.comb(n, 2)


def labeled_tree_count(n: int) -> int:
    """Cayley's formula ``n^{n-2}`` (1 for n in {0, 1, 2} degenerate cases)."""
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    if n <= 2:
        return 1
    return n ** (n - 2)


@lru_cache(maxsize=None)
def _forest_counts_up_to(n: int) -> tuple[int, ...]:
    """Bottom-up table of labelled forest counts F(0..n)."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(
            sum(
                math.comb(m - 1, k - 1) * labeled_tree_count(k) * counts[m - k]
                for k in range(1, m + 1)
            )
        )
    return tuple(counts)


def labeled_forest_count(n: int) -> int:
    """Number of labelled forests (OEIS A001858).

    Recurrence on the component of vertex ``n``:
    ``F(n) = Σ_{k=1}^{n} binom(n-1, k-1) T(k) F(n-k)`` with ``T`` Cayley's
    tree count, computed bottom-up.  (The degeneracy-1 family: Lemma 1
    predicts — and the table confirms — ``log2 F(n) = O(n log n)``,
    consistent with forests being reconstructible, Section III.A.)
    """
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    return _forest_counts_up_to(n)[n]


def bipartite_fixed_parts_count(n: int) -> int:
    """Bipartite graphs with parts ``{1..n/2}`` and ``{n/2+1..n}``: ``2^{(n/2)·(n - n/2)}``.

    This is Theorem 3's family (the paper takes n even; we allow odd n with
    the floor/ceil split).
    """
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    a = n // 2
    return 1 << (a * (n - a))


def enumerate_labeled_graphs(n: int) -> Iterator[LabeledGraph]:
    """Yield every labelled graph on ``n`` vertices (``2^C(n,2)`` of them).

    Guarded by ``MAX_ENUM_N`` so a typo cannot start a year-long loop.
    """
    if n > MAX_ENUM_N:
        raise GraphError(
            f"refusing to enumerate 2^{math.comb(n, 2)} graphs (n={n} > MAX_ENUM_N={MAX_ENUM_N})"
        )
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield LabeledGraph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def _pair_bit_columns(n: int) -> tuple[list[tuple[int, int]], list[int], int]:
    """All graphs on ``n`` vertices as edge columns, one big int per edge.

    Graph ``g`` (``0 <= g < 2^C(n,2)``) has edge ``pairs[e]`` iff bit ``e``
    of ``g`` is set, and ``cols[e]`` has bit ``g`` set iff it does.  Bitwise
    ops on these integers act on all graphs at once, so the count stays
    exhaustive *and* vectorized (in C, via CPython's big-int arithmetic).

    Bit ``e`` of ``g`` is clear for ``2^e`` consecutive ``g`` and then set
    for ``2^e``, so column ``e`` repeats with period ``2^(e+1)`` bits.  Read
    little-endian, that is the byte ``0xAA``/``0xCC``/``0xF0`` repeated for
    ``e < 3``, and ``2^(e-3)`` zero bytes then ``2^(e-3)`` ``0xFF`` bytes for
    ``e >= 3``; ``int.from_bytes`` builds each column from that pattern.
    """
    pairs = list(combinations(range(1, n + 1), 2))
    total = 1 << len(pairs)
    nbytes = total // 8  # the caller has n >= 4, so every period fits whole
    cols = []
    for e in range(len(pairs)):
        if e < 3:
            period = (b"\xaa", b"\xcc", b"\xf0")[e]
        else:
            half = 1 << (e - 3)
            period = b"\x00" * half + b"\xff" * half
        cols.append(int.from_bytes(period * (nbytes // len(period)), "little"))
    return pairs, cols, total


def count_square_free(n: int) -> int:
    """Exact number of labelled C4-free graphs on ``n <= MAX_ENUM_N`` vertices.

    A C4 exists iff some vertex pair has >= 2 common neighbours.  For every
    pair (u, v) we add up, over w, the AND of the edge columns (u,w) and
    (v,w) in a two-bit bitsliced counter that saturates at 2; its high
    bit marks the graphs where (u, v) closes a square.
    """
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    if n > MAX_ENUM_N:
        raise GraphError(f"exact square-free count limited to n <= {MAX_ENUM_N}")
    if n < 4:
        return labeled_graph_count(n)
    pairs, cols, total = _pair_bit_columns(n)
    eidx = {p: i for i, p in enumerate(pairs)}

    def col(u: int, v: int) -> int:
        return cols[eidx[(u, v) if u < v else (v, u)]]

    has_square = 0
    for u, v in pairs:
        ones = twos = 0  # per-graph common-neighbour count, saturating at 2
        for w in range(1, n + 1):
            if w != u and w != v:
                x = col(u, w) & col(v, w)
                twos |= ones & x
                ones ^= x
        has_square |= twos
    return total - has_square.bit_count()


def frugal_capacity_bits(n: int, k_const: float) -> float:
    """Lemma 1's capacity: total bits a frugal protocol delivers, ``k · n · log2 n``.

    A family with ``log2 g(n)`` above this for every constant ``k_const``
    (as n grows) cannot be reconstructed in one frugal round.
    """
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0.0
    return k_const * n * math.log2(n)


def zarankiewicz_lower_bound(n: int) -> float:
    """A lower bound on ``log2 #(C4-free graphs on n vertices)``.

    The Kővári–Sós–Turán / Erdős–Rényi–Sós extremal C4-free graph has
    ``ex(n; C4) >= (1/2)(n^{3/2} - n)`` edges for suitable n (polarity graphs
    achieve ~ (1/2) n^{3/2}); every subgraph of a C4-free graph is C4-free,
    so the count is at least ``2^{ex}``.  We use the conservative
    ``(1/2)(n^{3/2} - n)`` floor — enough to dominate ``k n log n``
    (Kleitman–Winston's ``2^{Θ(n^{3/2})}``, the paper's citation [9]).
    """
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    return max(0.0, 0.5 * (n**1.5 - n))
