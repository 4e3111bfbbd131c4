"""The AGM wire format and Borůvka round shared by every sketch protocol.

**Wire format.**  A *bank* is ``rounds`` independent L0 samplers of one
signed edge-incidence vector over the edge slots of a ``size``-vertex
graph.  A sampler is ``levels`` one-sparse sketches, and a sketch is
three fixed-width fields: ``zigzag(c0)`` in ``w0`` bits, ``zigzag(c1)``
in ``w1`` bits and ``c2`` in 61 bits.  A node's message is its banks back
to back, each bank round after round.

**Totality.**  Every field has a fixed width, so a message parses iff it
is exactly ``Σ rounds·levels·(w0+w1+61)`` bits long over its banks.  That
length is checked once, up front, and a wrong length is a
:class:`~repro.errors.DecodeError`; every bitstring of the right length
decodes, so nothing after the check can fail on malformed input.

**Lazy reads.**  Round ``r`` of a bank sits at a computed bit offset and
is read only when Borůvka reaches it; rounds it never reaches are never
parsed.  A protocol with several banks (bipartiteness: G, DC, DC′) just
points each vertex at its bank's offset.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.bits.reader import BitReader
from repro.bits.writer import BitWriter
from repro.errors import DecodeError, SketchFailure
from repro.graphs.unionfind import UnionFind
from repro.model.message import Message
from repro.sketching.field import MERSENNE61
from repro.sketching.l0sampler import L0Sampler, L0SamplerParams

__all__ = ["Bank", "encode", "bank_offsets", "boruvka", "boruvka_round",
           "edge_index", "edge_pair", "incidence_updates"]


def edge_index(n: int, u: int, v: int) -> int:
    """Rank of edge ``{u, v}`` (u < v) in lexicographic order over C(n,2) slots."""
    if not 1 <= u < v <= n:
        raise ValueError(f"need 1 <= u < v <= n, got ({u}, {v})")
    # edges (1,2)..(1,n), (2,3)..(2,n), ...: (u-1)n - u(u-1)/2 edges precede row u
    return (u - 1) * n - u * (u - 1) // 2 + v - u - 1


def edge_pair(n: int, index: int) -> tuple[int, int]:
    """Inverse of :func:`edge_index`."""
    if index < 0 or index >= n * (n - 1) // 2:
        raise ValueError(f"edge index {index} out of range for n={n}")
    u = 1
    while (u - 1) * n - u * (u - 1) // 2 + (n - u) <= index:
        u += 1
    v = index - ((u - 1) * n - u * (u - 1) // 2) + u + 1
    return u, v


def incidence_updates(
    n: int, i: int, neighborhood: Iterable[int]
) -> list[tuple[int, int]]:
    """Node ``i``'s signed edge-incidence stream: ``(edge_index, ±1)`` pairs."""
    return [
        (edge_index(n, i, w), +1) if i < w else (edge_index(n, w, i), -1)
        for w in neighborhood
    ]


def _zigzag(x: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    return (x << 1) ^ (x >> 63) if x >= 0 else ((-x) << 1) - 1


def _unzigzag(u: int) -> int:
    """Inverse of :func:`_zigzag`."""
    return (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1)


@dataclass(frozen=True)
class Bank:
    """One sampler per Borůvka round over the edge slots of ``1..size``."""

    size: int
    params: tuple[L0SamplerParams, ...]

    @property
    def widths(self) -> tuple[int, int]:
        """Fixed widths of the ``(zigzag c0, zigzag c1)`` fields."""
        m = max(1, self.size * (self.size - 1) // 2)
        return (2 * self.size).bit_length(), (2 * self.size * m).bit_length()

    @property
    def bits(self) -> int:
        """The bank's length on the wire."""
        w0, w1 = self.widths
        return sum(params.levels for params in self.params) * (w0 + w1 + 61)


def encode(streams: Iterable[tuple[Bank, list[tuple[int, int]]]]) -> Message:
    """Sketch each ``(bank, incidence updates)`` pair and pack them all in order."""
    fields: list[tuple[int, int]] = []
    for bank, updates in streams:
        w0, w1 = bank.widths
        for params in bank.params:
            sampler = L0Sampler(params)
            sampler.update_many(updates)
            for c0, c1, c2 in sampler.counters():
                fields.append((_zigzag(c0), w0))
                fields.append((_zigzag(c1), w1))
                fields.append((c2, 61))
    writer = BitWriter()
    writer.write_many(fields)
    return Message.from_writer(writer)


def bank_offsets(messages: Sequence[Message], banks: Sequence[Bank]) -> list[int]:
    """Length-check every message against ``banks``; return each bank's bit offset."""
    offsets = []
    total = 0
    for bank in banks:
        offsets.append(total)
        total += bank.bits
    for v, msg in enumerate(messages, start=1):
        if msg.bits != total:
            raise DecodeError(
                f"malformed sketch message: node {v} sent {msg.bits} bits, expected {total}"
            )
    return offsets


def boruvka_round(
    uf: UnionFind, bank: Bank, r: int, sources: Sequence[tuple[Message, int]]
) -> tuple[list[tuple[int, int]], int]:
    """One Borůvka phase on round ``r`` of ``bank``.

    ``sources[v-1]`` is the length-checked message holding vertex ``v``'s
    sketch and the bit offset of its bank.  Each component's round-``r``
    counters are summed (``c2`` mod p, as :meth:`OneSparseSketch.merged`
    does), one outgoing edge is sampled per component, and the components
    are united.  Returns the new forest edges and the sampler failures.
    """
    w0, w1 = bank.widths
    levels = bank.params[r].levels  # the same in every round: all share one universe
    chunk = levels * (w0 + w1 + 61)
    agg: dict[int, list[tuple[int, int, int]]] = {}
    for v, (msg, offset) in enumerate(sources, start=1):
        shift = msg.bits - offset - (r + 1) * chunk
        reader = BitReader((msg.acc >> shift) & ((1 << chunk) - 1), chunk)
        counters = [
            (_unzigzag(reader.read_bits(w0)), _unzigzag(reader.read_bits(w1)), reader.read_bits(61))
            for _ in range(levels)
        ]
        root = uf.find(v)
        summed = agg.get(root)
        agg[root] = counters if summed is None else [
            (a0 + b0, a1 + b1, (a2 + b2) % MERSENNE61)
            for (a0, a1, a2), (b0, b1, b2) in zip(summed, counters)
        ]
    edges: list[tuple[int, int]] = []
    failures = 0
    for summed in agg.values():
        try:
            hit = L0Sampler.from_counters(bank.params[r], summed).sample()
        except SketchFailure:
            failures += 1
            continue
        if hit is None:
            continue  # genuinely isolated component
        u, v = edge_pair(bank.size, hit[0])
        if uf.union(u, v):
            edges.append((u, v) if u < v else (v, u))
    return edges, failures


def boruvka(
    bank: Bank, sources: Sequence[tuple[Message, int]]
) -> tuple[list[tuple[int, int]], int, int]:
    """Borůvka over every round of ``bank``: ``(forest, rounds_used, failures)``.

    Stops at one component, or after a round with neither a merge nor a
    sampler failure (every component is then, whp, isolated).
    """
    uf = UnionFind(bank.size)
    forest: list[tuple[int, int]] = []
    failures = rounds_used = 0
    for r in range(len(bank.params)):
        if len(forest) == bank.size - 1:
            break
        rounds_used = r + 1
        edges, failed = boruvka_round(uf, bank, r, sources)
        forest += edges
        failures += failed
        if not edges and not failed:
            break
    return forest, rounds_used, failures
