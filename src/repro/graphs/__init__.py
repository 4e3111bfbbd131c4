"""Labelled-graph substrate.

The paper's model is defined on *labelled* graphs: simple undirected graphs
whose vertex set is exactly ``{1, ..., n}`` (Section I.B — "in the whole
paper, 'graph' means 'labelled graph'").  :class:`LabeledGraph` enforces that
invariant structurally, which keeps every protocol implementation honest
about what a node knows: its own ID, its neighbours' IDs, and ``n``.

Submodules
----------
``labeled``      the graph type itself (1-based IDs, adjacency sets)
``generators``   graph families used across experiments (forests, k-trees,
                 planar triangulations, bipartite, square-free, k-degenerate,
                 Erdős–Rényi, grids/hypercubes/fat-trees/tori)
``degeneracy``   Matula–Beck degeneracy ordering and core numbers
``properties``   predicates the paper reasons about (triangle, square,
                 diameter, connectivity, bipartiteness, girth)
``counting``     exact small-n family counts + the asymptotic exponents used
                 by Lemma 1's information bound
``families``     fixed named instances (Petersen, the Figure 1/2 style
                 demonstration graphs)
"""

from repro.graphs.labeled import LabeledGraph
from repro.graphs.degeneracy import (
    degeneracy,
    degeneracy_ordering,
    core_numbers,
)
from repro.graphs.invariants import treewidth_exact
from repro.graphs.properties import (
    has_triangle,
    has_square,
    girth,
    diameter,
    is_connected,
    connected_components,
    is_bipartite,
    bipartition,
)

__all__ = [
    "LabeledGraph",
    "treewidth_exact",
    "degeneracy",
    "degeneracy_ordering",
    "core_numbers",
    "has_triangle",
    "has_square",
    "girth",
    "diameter",
    "is_connected",
    "connected_components",
    "is_bipartite",
    "bipartition",
]
