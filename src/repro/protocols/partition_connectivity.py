"""The conclusion's partition-based connectivity protocol.

The paper's closing discussion observes that its hardness technique — a
partition argument with a fixed number of parts — *cannot* rule out a
one-round connectivity protocol, because: "if a graph is split into k parts
and vertices of each part are allowed to communicate to each other, there is
an algorithm for connectivity using O(k log n) bits per node."

This module implements that algorithm.  The vertex set is split into k
deterministic ID-contiguous parts.  A *part* acts as a coalition: pooling
its members' neighbourhoods, it knows ``H_p`` — every edge with at least one
endpoint in the part.  The coalition computes a spanning forest ``F_p`` of
``H_p`` and serializes it; the bit stream is chunked evenly across the
part's members, every node carrying one ``O(k log n)``-bit chunk (balanced
parts: ``|F_p| ≤ n-1`` edges ≈ ``2n log n`` bits over ``n/k`` members).

Correctness is the classical forest-replacement argument: every edge of G
lies in some ``H_p``, and replacing each ``H_p`` by a spanning forest
preserves connectivity of the union (if ``e ∈ H_p`` its endpoints stay
connected inside ``F_p``), so ``∪_p F_p`` is connected iff G is.

Note this protocol lives *outside* Definition 1: a node's chunk depends on
its whole part's knowledge, not just its own neighbourhood.  That is the
point — the paper uses it to explain why partition-based lower bounds fail
for connectivity.  The class therefore exposes ``run(g)`` with coalition
semantics instead of subclassing ``OneRoundProtocol``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bits.reader import BitReader
from repro.bits.sizing import id_width
from repro.bits.writer import BitWriter
from repro.errors import DecodeError, GraphError
from repro.graphs.labeled import LabeledGraph
from repro.graphs.unionfind import UnionFind

__all__ = ["PartitionConnectivityProtocol", "PartitionConnectivityReport", "parts_of"]


def parts_of(n: int, k: int) -> list[range]:
    """Split ``1..n`` into k ID-contiguous parts, sizes differing by at most 1."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if n < k:
        raise GraphError(f"need n >= k parts, got n={n}, k={k}")
    base, extra = divmod(n, k)
    parts = []
    start = 1
    for p in range(k):
        size = base + (1 if p < extra else 0)
        parts.append(range(start, start + size))
        start += size
    return parts


@dataclass(frozen=True)
class PartitionConnectivityReport:
    """Outcome and resource usage of one coalition round."""

    connected: bool
    n: int
    k_parts: int
    max_bits_per_node: int
    total_bits: int
    forest_edges: int


class PartitionConnectivityProtocol:
    """One coalition-round connectivity via per-part spanning forests."""

    def __init__(self, k_parts: int) -> None:
        if k_parts < 1:
            raise GraphError(f"k_parts must be >= 1, got {k_parts}")
        self.k_parts = k_parts
        self.name = f"partition-connectivity(k={k_parts})"

    # ------------------------------------------------------------------ #
    # coalition local phase
    # ------------------------------------------------------------------ #

    def part_forest(self, g: LabeledGraph, part: range) -> list[tuple[int, int]]:
        """Spanning forest of ``H_part`` (edges incident to the part)."""
        members = set(part)
        uf = UnionFind(g.n)
        forest = []
        for u in part:
            for v in sorted(g.neighbors(u)):
                if v in members and v < u:
                    continue  # internal edge already seen from the lower endpoint
                if uf.union(u, v):
                    forest.append((u, v))
        return forest

    def _serialize_forest(self, n: int, forest: list[tuple[int, int]]) -> BitWriter:
        w = id_width(n)
        count_width = id_width(n) + 1  # forest has <= n-1 < 2n edges
        writer = BitWriter()
        writer.write_bits(len(forest), count_width)
        for u, v in forest:
            writer.write_bits(u, w)
            writer.write_bits(v, w)
        return writer

    def node_chunks(self, g: LabeledGraph, part: range) -> list[tuple[int, int]]:
        """The per-member message payloads: the part's stream cut evenly.

        Returns one ``(acc, nbits)`` chunk per member, in ID order.  Every
        member's chunk has the same length (the stream is zero-padded), so
        the referee can reassemble by concatenation knowing only n and k.
        """
        stream = self._serialize_forest(g.n, self.part_forest(g, part))
        total_bits = len(stream)
        size = len(part)
        chunk = -(-total_bits // size) if total_bits else 0
        acc, nbits = stream.to_int()
        acc <<= chunk * size - nbits  # right-pad to an even split
        chunks = []
        for idx in range(size):
            shift = chunk * (size - 1 - idx)
            chunks.append(((acc >> shift) & ((1 << chunk) - 1) if chunk else 0, chunk))
        return chunks

    # ------------------------------------------------------------------ #
    # full round
    # ------------------------------------------------------------------ #

    def run(self, g: LabeledGraph) -> PartitionConnectivityReport:
        """Execute the coalition round and decide connectivity."""
        n = g.n
        if n == 0:
            return PartitionConnectivityReport(True, 0, self.k_parts, 0, 0, 0)
        parts = parts_of(n, self.k_parts)
        per_node_bits: list[int] = []
        uf = UnionFind(g.n)
        forest_edges = 0
        # each member sends (chunk_len, chunk); chunk_len is implicit per part
        # since all chunks are equal — the first member's message carries the
        # total length so the referee can strip the padding.
        header_width = 2 * id_width(n) + id_width(n).bit_length() + 3
        for part in parts:
            chunks = self.node_chunks(g, part)
            total_bits = sum(nb for _, nb in chunks)
            stream_acc = 0
            for acc, nbits in chunks:
                stream_acc = (stream_acc << nbits) | acc
            for idx, (_, nbits) in enumerate(chunks):
                bits = nbits + (header_width if idx == 0 else 0)
                per_node_bits.append(bits)
            if total_bits == 0:
                continue
            reader = BitReader(stream_acc, total_bits)
            count_width = id_width(n) + 1
            w = id_width(n)
            count = reader.read_bits(count_width)
            if count > n - 1:
                raise DecodeError(f"part claims {count} forest edges on {n} vertices")
            for _ in range(count):
                u = reader.read_bits(w)
                v = reader.read_bits(w)
                if not (1 <= u <= n and 1 <= v <= n) or u == v:
                    raise DecodeError(f"part forest contains invalid edge ({u}, {v})")
                forest_edges += 1
                uf.union(u, v)
        roots = {uf.find(v) for v in g.vertices()}
        connected = len(roots) == 1
        return PartitionConnectivityReport(
            connected=connected,
            n=n,
            k_parts=self.k_parts,
            max_bits_per_node=max(per_node_bits, default=0),
            total_bits=sum(per_node_bits),
            forest_edges=forest_edges,
        )
