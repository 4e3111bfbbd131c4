"""Footnote 1's baseline: bounded-degree graphs reconstruct trivially.

"If the network has bounded degree then each processor can simply send its
neighborhood to the referee, using only O(log n) bits."  Each node sends its
degree then its neighbour IDs verbatim: ``(Δ+1)·ceil(log2(n+1))`` bits on a
degree-≤Δ graph — frugal for constant Δ, and the point of comparison for
the power-sum protocol, which achieves the same on *unbounded-degree*
graphs of bounded degeneracy (a strictly larger class: stars have
degeneracy 1 and unbounded degree).

On a vertex of degree above the agreed Δ, the node sends an overflow flag
plus its degree; the referee raises :class:`DecodeError` — the protocol is
total but only *correct* on the promised class, mirroring the footnote's
scope.
"""

from __future__ import annotations

from repro.bits.sizing import id_width
from repro.bits.writer import BitWriter
from repro.errors import BitstreamError, DecodeError, GraphError
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.protocol import ReconstructionProtocol, require_one_message_per_vertex
from repro.registry import register

__all__ = ["BoundedDegreeProtocol"]


class BoundedDegreeProtocol(ReconstructionProtocol):
    """Send-your-neighbourhood reconstruction for degree-≤Δ graphs."""

    def __init__(self, max_degree: int) -> None:
        if max_degree < 0:
            raise GraphError(f"max_degree must be >= 0, got {max_degree}")
        self.max_degree = max_degree
        self.name = f"bounded-degree(Δ={max_degree})"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        w = id_width(n)
        writer = BitWriter()
        writer.write_bits(i, w)
        if len(neighborhood) > self.max_degree:
            writer.write_bit(1)  # overflow: degree promise broken
            writer.write_bits(len(neighborhood), w)
        else:
            writer.write_bit(0)
            writer.write_bits(len(neighborhood), w)
            for v in sorted(neighborhood):
                writer.write_bits(v, w)
        return Message.from_writer(writer)

    def global_(self, n: int, messages: list[Message]) -> LabeledGraph:
        require_one_message_per_vertex(n, messages)
        if n == 0:
            return LabeledGraph(0)
        w = id_width(n)
        g = LabeledGraph(n)
        seen: set[int] = set()
        claims: dict[int, frozenset[int]] = {}
        for msg in messages:
            r = msg.reader()
            try:
                i = r.read_bits(w)
                overflow = r.read_bit()
                d = r.read_bits(w)
                if overflow:
                    raise DecodeError(
                        f"vertex {i} has degree {d} > Δ={self.max_degree}: "
                        "input outside the bounded-degree promise"
                    )
                nbrs = frozenset(r.read_bits(w) for _ in range(d))
                r.expect_exhausted()
            except BitstreamError as exc:
                raise DecodeError(f"malformed bounded-degree message: {exc}") from exc
            if not 1 <= i <= n or i in seen:
                raise DecodeError(f"bad or duplicate vertex ID {i}")
            seen.add(i)
            claims[i] = nbrs
        for i, nbrs in claims.items():
            for v in nbrs:
                if not 1 <= v <= n or v == i:
                    raise DecodeError(f"vertex {i} claims invalid neighbour {v}")
                if i not in claims[v]:
                    raise DecodeError(f"asymmetric claim: {i} lists {v} but not vice versa")
                if i < v:
                    g.add_edge(i, v)
        return g



@register("bounded_degree", kind="protocol",
          capabilities=("reconstruction", "deterministic"),
          summary="Footnote 1 baseline: bounded-degree nodes send their whole "
                  "neighbourhood.")
def _build_bounded_degree(n: int, max_degree: int = 3) -> "BoundedDegreeProtocol":
    return BoundedDegreeProtocol(max_degree)
