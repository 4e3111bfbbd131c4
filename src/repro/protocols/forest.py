"""Section III.A: the k = 1 special case — reconstructing forests.

Each vertex sends the triple ``(ID(v), deg_T(v), Σ_{w∈N(v)} ID(w))`` —
"less than 4 log n bits".  The referee repeatedly prunes a leaf: a vertex of
current degree 1 names its unique neighbour outright (the sum *is* the
neighbour), and pruning updates the neighbour's triple to that of ``T \\ v``.
Degree-0 vertices are isolated and drop out immediately.

If the input contains a cycle the pruning stalls with every remaining vertex
at degree ≥ 2 — so, exactly as the paper notes, the same messages also
*decide* forest-ness; :meth:`ForestReconstructionProtocol.global_` raises
:class:`RecognitionFailure` in that case and
:class:`ForestRecognitionProtocol` converts it to a boolean.

This is byte-for-byte the ``k = 1`` instantiation of Algorithm 3/4 (the sum
of IDs is the first power sum); tests assert the two protocols reconstruct
identically — here it is kept separate because the paper presents it first
"to give the flavour of the algorithm", and the standalone version makes the
leaf-pruning logic legible.
"""

from __future__ import annotations

from repro.bits.sizing import id_width
from repro.bits.writer import BitWriter
from repro.errors import BitstreamError, DecodeError, RecognitionFailure
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.protocol import (
    DecisionProtocol,
    ReconstructionProtocol,
    require_one_message_per_vertex,
)
from repro.registry import register

__all__ = ["ForestReconstructionProtocol", "ForestRecognitionProtocol"]


class ForestReconstructionProtocol(ReconstructionProtocol):
    """One-round frugal reconstruction of forests (degeneracy 1)."""

    name = "forest-reconstruction"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        w = id_width(n)
        writer = BitWriter()
        writer.write_bits(i, w)
        writer.write_bits(len(neighborhood), w)
        writer.write_bits(sum(neighborhood), 2 * w)  # sum <= n(n-1)/2 < n^2
        return Message.from_writer(writer)

    def global_(self, n: int, messages: list[Message]) -> LabeledGraph:
        require_one_message_per_vertex(n, messages)
        if n == 0:
            return LabeledGraph(0)
        w = id_width(n)
        deg: dict[int, int] = {}
        total: dict[int, int] = {}
        for msg in messages:
            r = msg.reader()
            try:
                v = r.read_bits(w)
                d = r.read_bits(w)
                s = r.read_bits(2 * w)
                r.expect_exhausted()
            except BitstreamError as exc:
                raise DecodeError(f"malformed forest message: {exc}") from exc
            if not 1 <= v <= n or v in deg:
                raise DecodeError(f"bad or duplicate vertex ID {v}")
            deg[v] = d
            total[v] = s

        h = LabeledGraph(n)
        leaves = [v for v in deg if deg[v] <= 1]
        remaining = set(deg)
        while leaves:
            v = leaves.pop()
            if v not in remaining:
                continue
            remaining.discard(v)
            if deg[v] == 0:
                continue
            u = total[v]  # the unique neighbour's ID, literally
            if u not in remaining:
                raise DecodeError(f"leaf {v} names neighbour {u} outside the remaining forest")
            h.add_edge(v, u)
            deg[u] -= 1
            total[u] -= v
            if deg[u] <= 1:
                leaves.append(u)
        if remaining:
            raise RecognitionFailure(
                "pruning stalled: the input contains a cycle (not a forest)",
                stuck_vertices=frozenset(remaining),
            )
        return h


class ForestRecognitionProtocol(DecisionProtocol):
    """Same messages; referee answers "is the graph a forest?"."""

    name = "forest-recognition"

    def __init__(self) -> None:
        self._inner = ForestReconstructionProtocol()

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        return self._inner.local(n, i, neighborhood)

    def global_(self, n: int, messages: list[Message]) -> bool:
        try:
            self._inner.global_(n, messages)
        except RecognitionFailure:
            return False
        return True



@register("forest", kind="protocol",
          capabilities=("reconstruction", "deterministic", "frugal"),
          summary="Section III.A: forest reconstruction from (id, degree, "
                  "neighbour-sum) triples.")
def _build_forest(n: int) -> "ForestReconstructionProtocol":
    return ForestReconstructionProtocol()
