"""Section III.A: the k = 1 special case — reconstructing forests.

Each vertex sends the triple ``(ID(v), deg_T(v), Σ_{w∈N(v)} ID(w))`` —
"less than 4 log n bits".  The referee repeatedly prunes a leaf: a vertex of
current degree 1 names its unique neighbour outright (the sum *is* the
neighbour), and pruning updates the neighbour's triple to that of ``T \\ v``.
Degree-0 vertices are isolated and drop out immediately.

That triple is Algorithm 3's message at k = 1 (the sum of IDs is the first
power sum), and leaf pruning is Algorithm 4 at k = 1, so both protocols
here are Theorem 5's with ``k = 1`` under the Section III.A names.

If the input contains a cycle the pruning stalls with every remaining vertex
at degree ≥ 2 — so, exactly as the paper notes, the same messages also
*decide* forest-ness; :meth:`ForestReconstructionProtocol.global_` raises
:class:`RecognitionFailure` in that case, and
``DegeneracyRecognitionProtocol(1)`` converts it to a boolean.
"""

from __future__ import annotations

from repro.protocols.degeneracy_reconstruction import DegeneracyReconstructionProtocol
from repro.registry import register

__all__ = ["ForestReconstructionProtocol"]


class ForestReconstructionProtocol(DegeneracyReconstructionProtocol):
    """One-round frugal reconstruction of forests (degeneracy 1)."""

    def __init__(self) -> None:
        super().__init__(1)
        self.name = "forest-reconstruction"



@register("forest", kind="protocol",
          capabilities=("reconstruction", "deterministic", "frugal"),
          summary="Section III.A: forest reconstruction from (id, degree, "
                  "neighbour-sum) triples.")
def _build_forest(n: int) -> "ForestReconstructionProtocol":
    return ForestReconstructionProtocol()
