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

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.graphs.labeled", ("LabeledGraph",)),
    ("repro.graphs.invariants", ("treewidth_exact",)),
    ("repro.graphs.degeneracy", ("degeneracy", "degeneracy_ordering", "core_numbers")),
    ("repro.graphs.properties", (
        "has_triangle", "has_square", "girth", "diameter", "is_connected",
        "connected_components", "is_bipartite", "bipartition")),
))
