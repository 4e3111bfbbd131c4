"""Graph generators for every family the paper mentions.

Positive-result families (Section III): forests (degeneracy 1), k-trees and
partial k-trees (degeneracy <= k, treewidth k), planar triangulations
(planar => degeneracy <= 5; the Apollonian construction used here is
3-degenerate), and random k-degenerate graphs built directly from an
elimination order.

Negative-result families (Section II): square-free graphs (Theorem 1),
bipartite graphs with fixed parts (Theorem 3), and arbitrary Erdős–Rényi
graphs (Theorem 2).

Interconnection-network topologies (grids, tori, hypercubes, fat-trees) back
the examples: they are the "networks" the model's introduction motivates,
and all have small degeneracy, so the paper's protocol reconstructs them.

All random generators take an integer ``seed`` and are deterministic given
it (``random.Random(seed)``; the combinatorial choices don't benefit from
numpy's bit generators and this keeps graphs reproducible across platforms).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.errors import GraphError, InvalidVertexError, ProtocolError
from repro.graphs.labeled import LabeledGraph
from repro.registry import register

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite",
    "grid_2d",
    "torus_2d",
    "hypercube",
    "fat_tree",
    "random_tree",
    "random_forest",
    "erdos_renyi",
    "random_bipartite",
    "k_tree",
    "partial_k_tree",
    "random_k_degenerate",
    "apollonian",
    "random_planar",
    "polarity_graph",
    "random_square_free",
    "disjoint_union",
]


# --------------------------------------------------------------------- #
# deterministic topologies
# --------------------------------------------------------------------- #


def path_graph(n: int) -> LabeledGraph:
    """Path ``1 - 2 - ... - n``."""
    return LabeledGraph(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> LabeledGraph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    g = path_graph(n)
    g.add_edge(n, 1)
    return g


def star_graph(n: int) -> LabeledGraph:
    """Star: vertex 1 adjacent to ``2..n``."""
    return LabeledGraph(n, ((1, i) for i in range(2, n + 1)))


def complete_graph(n: int) -> LabeledGraph:
    """K_n."""
    return LabeledGraph(n, ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


def complete_bipartite(a: int, b: int) -> LabeledGraph:
    """K_{a,b} with parts ``1..a`` and ``a+1..a+b``."""
    return LabeledGraph(a + b, ((u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)))


def grid_2d(rows: int, cols: int) -> LabeledGraph:
    """``rows x cols`` grid; vertex ``(r, c)`` (0-based) has ID ``r*cols + c + 1``."""
    if rows < 1 or cols < 1:
        raise GraphError("grid needs rows, cols >= 1")
    g = LabeledGraph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def torus_2d(rows: int, cols: int) -> LabeledGraph:
    """2-D torus (grid with wraparound); needs ``rows, cols >= 3`` to stay simple."""
    if rows < 3 or cols < 3:
        raise GraphError("torus needs rows, cols >= 3 to avoid parallel edges")
    g = grid_2d(rows, cols)
    for r in range(rows):
        g.add_edge(r * cols + 1, r * cols + cols)
    for c in range(cols):
        g.add_edge(c + 1, (rows - 1) * cols + c + 1)
    return g


def hypercube(dim: int) -> LabeledGraph:
    """``dim``-dimensional hypercube on ``2^dim`` vertices (vertex v-1 is the coordinate word)."""
    if dim < 0:
        raise GraphError("hypercube dimension must be >= 0")
    n = 1 << dim
    g = LabeledGraph(n)
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if u < v:
                g.add_edge(u + 1, v + 1)
    return g


def fat_tree(k: int) -> LabeledGraph:
    """A k-ary fat-tree datacenter topology (k even): core, aggregation, edge switches.

    The standard 3-tier fat-tree: ``(k/2)²`` core switches, ``k`` pods each
    with ``k/2`` aggregation and ``k/2`` edge switches.  Hosts are omitted —
    the referee model reconstructs the switching fabric.  IDs: core first,
    then per pod aggregation then edge.
    """
    if k < 2 or k % 2:
        raise GraphError(f"fat-tree needs even k >= 2, got {k}")
    half = k // 2
    n_core = half * half
    n = n_core + k * k  # each pod has k switches
    g = LabeledGraph(n)

    def agg(pod: int, i: int) -> int:
        return n_core + pod * k + i + 1

    def edge(pod: int, i: int) -> int:
        return n_core + pod * k + half + i + 1

    for pod in range(k):
        for i in range(half):
            for j in range(half):
                # aggregation switch i connects to core switches i*half..i*half+half-1
                g.add_edge(agg(pod, i), i * half + j + 1)
                g.add_edge(agg(pod, i), edge(pod, j))
    return g


# --------------------------------------------------------------------- #
# random families
# --------------------------------------------------------------------- #


def random_tree(n: int, seed: int | None = None) -> LabeledGraph:
    """Uniform random labelled tree via a random Prüfer sequence."""
    if n < 1:
        raise GraphError(f"tree needs n >= 1, got {n}")
    if n == 1:
        return LabeledGraph(1)
    if n == 2:
        return LabeledGraph(2, [(1, 2)])
    rng = random.Random(seed)
    prufer = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    return _tree_from_prufer(n, prufer)


def _tree_from_prufer(n: int, prufer: Sequence[int]) -> LabeledGraph:
    degree = [1] * (n + 1)
    for v in prufer:
        degree[v] += 1
    g = LabeledGraph(n)
    import heapq

    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        g.add_edge(leaf, v)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    g.add_edge(u, w)
    return g


def random_forest(n: int, n_trees: int, seed: int | None = None) -> LabeledGraph:
    """Random labelled forest: a random tree with ``n_trees - 1`` random edges removed."""
    if not 1 <= n_trees <= n:
        raise GraphError(f"need 1 <= n_trees <= n, got n_trees={n_trees}, n={n}")
    rng = random.Random(seed)
    g = random_tree(n, seed=rng.randrange(1 << 30))
    edges = list(g.edges())
    for u, v in rng.sample(edges, n_trees - 1):
        g.remove_edge(u, v)
    return g


def erdos_renyi(n: int, p: float, seed: int | None = None) -> LabeledGraph:
    """G(n, p): each of the C(n,2) possible edges present independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    g = LabeledGraph(n)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_bipartite(a: int, b: int, p: float, seed: int | None = None) -> LabeledGraph:
    """Random bipartite graph with parts ``1..a`` and ``a+1..a+b`` (Theorem 3's family)."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    g = LabeledGraph(a + b)
    for u in range(1, a + 1):
        for v in range(a + 1, a + b + 1):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def k_tree(n: int, k: int, seed: int | None = None) -> LabeledGraph:
    """A random k-tree: K_{k+1} plus vertices each adjacent to a random existing k-clique.

    k-trees are the maximal treewidth-k graphs; their degeneracy is exactly
    k (for n > k), which makes them the paper's canonical positive family.
    """
    if n < k + 1:
        raise GraphError(f"k-tree needs n >= k+1, got n={n}, k={k}")
    rng = random.Random(seed)
    g = LabeledGraph(n)
    cliques: list[tuple[int, ...]] = []
    base = tuple(range(1, k + 2))
    for u in base:
        for v in base:
            if u < v:
                g.add_edge(u, v)
    for sub in _k_subsets(base, k):
        cliques.append(sub)
    for v in range(k + 2, n + 1):
        clique = cliques[rng.randrange(len(cliques))]
        for u in clique:
            g.add_edge(v, u)
        for drop in range(k):
            new_clique = tuple(sorted(set(clique) - {clique[drop]} | {v}))
            cliques.append(new_clique)
    return g


def _k_subsets(items: Sequence[int], k: int) -> list[tuple[int, ...]]:
    from itertools import combinations

    return [tuple(c) for c in combinations(items, k)]


def partial_k_tree(n: int, k: int, keep_prob: float = 0.7, seed: int | None = None) -> LabeledGraph:
    """A random partial k-tree (subgraph of a k-tree): treewidth <= k, degeneracy <= k."""
    rng = random.Random(seed)
    g = k_tree(n, k, seed=rng.randrange(1 << 30))
    for u, v in list(g.edges()):
        if rng.random() > keep_prob:
            g.remove_edge(u, v)
    return g


def random_k_degenerate(n: int, k: int, seed: int | None = None) -> LabeledGraph:
    """A random graph with degeneracy <= k, built along a random elimination order.

    Vertices are inserted in a random permutation order; each new vertex
    picks ``min(k, #existing)`` earlier vertices as neighbours.  The
    insertion order reversed is a valid Definition-2 elimination order, so
    degeneracy <= k by construction.

    The adjacency sets are filled directly and adopted in one
    ``LabeledGraph._from_adjacency`` call: a new vertex's picks are
    distinct earlier vertices, so every edge is new and none is a loop.
    """
    if k < 0:
        raise GraphError(f"k must be >= 0, got {k}")
    if n < 0:
        raise InvalidVertexError(f"n must be >= 0, got {n}")
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    m = 0
    placed: list[int] = []
    for v in order:
        if placed:
            want = min(k, len(placed))
            picks = rng.sample(placed, want)
            adj[v].update(picks)
            for u in picks:
                adj[u].add(v)
            m += want
        placed.append(v)
    return LabeledGraph._from_adjacency(n, adj, m)


def apollonian(n: int, seed: int | None = None) -> LabeledGraph:
    """Random Apollonian network: planar triangulation grown by face subdivision.

    Start from a triangle; repeatedly pick a random face and put a new
    vertex inside it adjacent to the face's three corners.  Always planar
    and 3-degenerate — a convenient concrete member of the paper's
    "planar graphs have degeneracy at most 5" class.
    """
    if n < 3:
        raise GraphError(f"apollonian needs n >= 3, got {n}")
    rng = random.Random(seed)
    g = LabeledGraph(n, [(1, 2), (2, 3), (1, 3)])
    faces: list[tuple[int, int, int]] = [(1, 2, 3)]
    for v in range(4, n + 1):
        idx = rng.randrange(len(faces))
        a, b, c = faces[idx]
        g.add_edge(v, a)
        g.add_edge(v, b)
        g.add_edge(v, c)
        faces[idx] = (a, b, v)
        faces.append((a, c, v))
        faces.append((b, c, v))
    return g


def random_planar(n: int, keep_prob: float = 0.8, seed: int | None = None) -> LabeledGraph:
    """A random planar graph: an Apollonian triangulation with edges thinned."""
    rng = random.Random(seed)
    if n < 3:
        return path_graph(n)
    g = apollonian(n, seed=rng.randrange(1 << 30))
    for u, v in list(g.edges()):
        if rng.random() > keep_prob:
            g.remove_edge(u, v)
    return g


def polarity_graph(q: int) -> LabeledGraph:
    """The Erdős–Rényi polarity graph ER_q — the *extremal* C4-free graph.

    Vertices are the ``q² + q + 1`` points of the projective plane PG(2, q)
    (``q`` prime); two distinct points are adjacent iff their dot product
    over GF(q) is zero.  Any two points lie on exactly one common line, so
    no two vertices share two common neighbours: **square-free**, with
    ``~ ½ q(q+1)²`` edges ``≈ ½ n^{3/2}`` — the construction behind the
    Kővári–Sós–Turán bound that powers Theorem 1's counting argument
    (every subgraph of ER_q is C4-free, giving ``2^{Ω(n^{3/2})}``
    square-free graphs).

    Point IDs follow the canonical representative order: ``(1, y, z)``
    lexicographically, then ``(0, 1, z)``, then ``(0, 0, 1)``.
    """
    if q < 2 or any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        raise GraphError(f"polarity graph needs prime q, got {q}")
    points: list[tuple[int, int, int]] = []
    for y in range(q):
        for z in range(q):
            points.append((1, y, z))
    for z in range(q):
        points.append((0, 1, z))
    points.append((0, 0, 1))
    n = len(points)  # q^2 + q + 1
    g = LabeledGraph(n)
    for i in range(n):
        xi, yi, zi = points[i]
        for j in range(i + 1, n):
            xj, yj, zj = points[j]
            if (xi * xj + yi * yj + zi * zj) % q == 0:
                g.add_edge(i + 1, j + 1)
    return g


def random_square_free(n: int, p: float = 0.3, seed: int | None = None) -> LabeledGraph:
    """A random C4-free graph: G(n, p) repaired by deleting one edge per square.

    Theorem 1's hard family.  The repair loop deletes a random edge of some
    4-cycle until none remain; the result is square-free by construction
    (verified in tests), though not uniform over the family — uniformity is
    irrelevant for the reduction experiments, which only need membership.
    """
    rng = random.Random(seed)
    g = erdos_renyi(n, p, seed=rng.randrange(1 << 30))
    while True:
        cyc = _find_square(g)
        if cyc is None:
            return g
        a, b, c, d = cyc  # edges: ab, bc, cd, da
        edges = [(a, b), (b, c), (c, d), (d, a)]
        u, v = edges[rng.randrange(4)]
        g.remove_edge(u, v)


def _find_square(g: LabeledGraph) -> tuple[int, int, int, int] | None:
    """Return a 4-cycle ``(a, b, c, d)`` with edges ab, bc, cd, da, or None."""
    seen: dict[tuple[int, int], int] = {}
    for v in g.vertices():
        nbrs = sorted(g.neighbors(v))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                pair = (nbrs[i], nbrs[j])
                if pair in seen:
                    return (seen[pair], nbrs[i], v, nbrs[j])
                seen[pair] = v
    return None


def disjoint_union(*graphs: LabeledGraph) -> LabeledGraph:
    """Disjoint union; vertex IDs of later graphs are shifted past earlier ones."""
    total = sum(g.n for g in graphs)
    out = LabeledGraph(total)
    offset = 0
    for g in graphs:
        for u, v in g.edges():
            out.add_edge(u + offset, v + offset)
        offset += g.n
    return out


# --------------------------------------------------------------------- #
# registered family builders
#
# The engine's graph-family registry entries.  Every builder takes the
# engine context ``(n, seed)`` first and the family's tunable parameters
# as keywords, and must produce exactly n vertices (or raise GraphError /
# ProtocolError for unsatisfiable sizes, which campaigns record as run
# errors rather than crashing).  This module *owns* these registrations —
# the engine resolves families purely by name through repro.registry.
# --------------------------------------------------------------------- #


@register("path", kind="graph_family", capabilities=("deterministic",),
          summary="Path P_n (degeneracy 1).")
def _family_path(n: int, seed: int) -> LabeledGraph:
    return path_graph(n)


@register("cycle", kind="graph_family", capabilities=("deterministic",),
          summary="Cycle C_n (degeneracy 2).")
def _family_cycle(n: int, seed: int) -> LabeledGraph:
    return cycle_graph(n)


@register("star", kind="graph_family", capabilities=("deterministic",),
          summary="Star K_{1,n-1}: one hub of degree n-1.")
def _family_star(n: int, seed: int) -> LabeledGraph:
    return star_graph(n)


@register("grid", kind="graph_family", capabilities=("deterministic", "planar"),
          summary="2-D grid on exactly n vertices (squarest factorization).")
def _family_grid(n: int, seed: int) -> LabeledGraph:
    # Squarest factorization with exactly n vertices (worst case 1 x n).
    if n < 1:
        raise ProtocolError(f"grid family needs size >= 1, got {n}")
    rows = next(d for d in range(int(n**0.5), 0, -1) if n % d == 0)
    return grid_2d(rows, n // rows)


@register("hypercube", kind="graph_family", capabilities=("deterministic",),
          summary="Hypercube Q_d; size must be a power of two >= 2.")
def _family_hypercube(n: int, seed: int) -> LabeledGraph:
    dim = max(0, n.bit_length() - 1)
    if n < 2 or (1 << dim) != n:
        raise ProtocolError(
            f"hypercube family needs a power-of-two size >= 2, got {n}"
        )
    return hypercube(dim)


@register("random_tree", kind="graph_family",
          capabilities=("random", "forest"),
          summary="Uniform random labelled tree (Prüfer sequence).")
def _family_random_tree(n: int, seed: int) -> LabeledGraph:
    return random_tree(n, seed=seed)


@register("random_forest", kind="graph_family",
          capabilities=("random", "forest"),
          summary="Random labelled forest (default n//20 trees).")
def _family_random_forest(n: int, seed: int, n_trees: int | None = None) -> LabeledGraph:
    return random_forest(n, n_trees if n_trees is not None else max(1, n // 20), seed=seed)


@register("two_components", kind="graph_family",
          capabilities=("random", "forest", "disconnected"),
          summary="Two random trees, disjoint — the canonical disconnected input.")
def _family_two_components(n: int, seed: int) -> LabeledGraph:
    a = n // 2
    return disjoint_union(random_tree(a, seed=seed), random_tree(n - a, seed=seed + 1))


@register("erdos_renyi", kind="graph_family", aliases=("gnp",),
          capabilities=("random",),
          summary="Erdős–Rényi G(n, p).")
def _family_erdos_renyi(n: int, seed: int, p: float = 0.1) -> LabeledGraph:
    return erdos_renyi(n, p, seed=seed)


@register("random_bipartite", kind="graph_family",
          capabilities=("random", "bipartite"),
          summary="Random bipartite graph with parts n//2 and n - n//2.")
def _family_random_bipartite(n: int, seed: int, p: float = 0.3) -> LabeledGraph:
    return random_bipartite(n // 2, n - n // 2, p, seed=seed)


@register("random_k_degenerate", kind="graph_family",
          capabilities=("random", "bounded_degeneracy"),
          summary="Random k-degenerate graph built from an elimination order.")
def _family_k_degenerate(n: int, seed: int, k: int = 2) -> LabeledGraph:
    return random_k_degenerate(n, k, seed=seed)


@register("random_planar", kind="graph_family",
          capabilities=("random", "planar", "bounded_degeneracy"),
          summary="Thinned Apollonian triangulation (planar, degeneracy <= 5).")
def _family_planar(n: int, seed: int, keep_prob: float = 0.8) -> LabeledGraph:
    return random_planar(n, keep_prob, seed=seed)


@register("apollonian", kind="graph_family",
          capabilities=("random", "planar", "bounded_degeneracy"),
          summary="Apollonian planar triangulation (3-degenerate).")
def _family_apollonian(n: int, seed: int) -> LabeledGraph:
    return apollonian(n, seed=seed)
