"""The labelled graph type used throughout the library.

A :class:`LabeledGraph` is a simple undirected graph whose vertex set is
exactly ``{1, ..., n}``.  The paper's protocols are all phrased in terms of
vertex identifiers, so the type never renames vertices implicitly; gadget
constructions (Section II) that *extend* a graph with fresh vertices
``n+1, n+2, ...`` do so through :meth:`extended`, which documents the ID
discipline explicitly.

Adjacency is stored as one Python ``set`` per vertex plus, lazily, one
integer bitmask per vertex (bit ``i`` set iff ``i`` is a neighbour).  The
masks make neighbourhood-equality and subset tests O(1)-ish and are what the
protocol layer serializes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.errors import InvalidVertexError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["LabeledGraph"]


class LabeledGraph:
    """Simple undirected graph on vertex set ``{1, ..., n}``.

    Parameters
    ----------
    n:
        Number of vertices; the vertex set is fixed to ``1..n``.
    edges:
        Optional iterable of ``(u, v)`` pairs; self-loops are rejected,
        duplicates are ignored (simple graph).
    """

    __slots__ = ("_n", "_adj", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise InvalidVertexError(f"n must be >= 0, got {n}")
        self._n = n
        self._adj: list[set[int]] = [set() for _ in range(n + 1)]
        self._m = 0
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def _from_adjacency(cls, n: int, adj: list[set[int]], m: int) -> "LabeledGraph":
        """Adopt prebuilt adjacency sets (index 0 unused) holding ``m`` edges.

        No per-edge checks: the caller vouches that ``adj`` is symmetric,
        loop-free and within ``1..n`` (decoders that have already checked
        every endpoint build their output this way).
        """
        g = cls.__new__(cls)
        g._n = n
        g._adj = adj
        g._m = m
        return g

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def vertices(self) -> range:
        """The vertex set ``1..n`` in ID order."""
        return range(1, self._n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        """The open neighbourhood ``N(v)`` — exactly what node ``v`` knows."""
        self._check(v)
        return frozenset(self._adj[v])

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        self._check(v)
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        """Degree sequence indexed by ID (``result[i-1] = deg(i)``)."""
        return [len(self._adj[v]) for v in self.vertices()]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as ``(u, v)`` with ``u < v``, sorted."""
        for u in self.vertices():
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """The edge set as a frozenset of sorted pairs."""
        return frozenset(self.edges())

    def edge_text(self) -> str:
        """``"n;u,v;..."``: ``n``, then every edge in :meth:`edges` order.

        The canonical text that graph output digests hash, built in one
        comprehension with each ID formatted once.
        """
        names = [str(v) for v in range(self._n + 1)]
        return f"{self._n};" + ";".join([
            f"{names[u]},{names[v]}"
            for u, nbrs in enumerate(self._adj) for v in sorted(nbrs) if u < v
        ])

    def neighborhood_mask(self, v: int) -> int:
        """``N(v)`` as an integer bitmask (bit ``i`` set iff ``i in N(v)``)."""
        self._check(v)
        mask = 0
        for w in self._adj[v]:
            mask |= 1 << w
        return mask

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add_edge(self, u: int, v: int) -> None:
        """Add edge ``{u, v}``; no-op if already present; rejects self-loops."""
        self._check(u)
        self._check(v)
        if u == v:
            raise InvalidVertexError(f"self-loop at vertex {u} not allowed (simple graph)")
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._m += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge ``{u, v}``; raises if absent."""
        self._check(u)
        self._check(v)
        if v not in self._adj[u]:
            raise InvalidVertexError(f"edge {{{u}, {v}}} not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #

    def copy(self) -> "LabeledGraph":
        """Independent copy."""
        g = LabeledGraph(self._n)
        g._adj = [set(s) for s in self._adj]
        g._m = self._m
        return g

    def extended(self, extra: int, new_edges: Iterable[tuple[int, int]] = ()) -> "LabeledGraph":
        """Return a copy with ``extra`` fresh vertices ``n+1 .. n+extra``.

        This is the gadget-construction primitive of Section II: the
        original vertices keep their IDs, the fresh vertices take the next
        IDs, and ``new_edges`` may reference both.
        """
        if extra < 0:
            raise InvalidVertexError(f"extra must be >= 0, got {extra}")
        g = LabeledGraph(self._n + extra)
        for v in self.vertices():
            g._adj[v] = set(self._adj[v])
        g._m = self._m
        for u, v in new_edges:
            g.add_edge(u, v)
        return g

    def complement(self) -> "LabeledGraph":
        """The complement graph on the same vertex set."""
        g = LabeledGraph(self._n)
        for u in self.vertices():
            for v in range(u + 1, self._n + 1):
                if v not in self._adj[u]:
                    g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def to_networkx(self) -> "nx.Graph":
        """Convert to a networkx Graph with nodes ``1..n``."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.vertices())
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._n, self.edge_set()))

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self._n}, m={self._m})"

    def _check(self, v: int) -> None:
        if not (isinstance(v, int) and 1 <= v <= self._n):
            raise InvalidVertexError(f"vertex {v!r} outside 1..{self._n}")
