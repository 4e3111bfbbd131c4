"""Section III.E: reconstruction of graphs of *generalized* degeneracy ≤ k.

The paper's final remark: define generalized degeneracy k by an ordering
``r_1..r_n`` where each ``r_i`` has degree ≤ k in ``G_i`` **or in the
complement of** ``G_i``.  The protocol "encodes both the neighborhood and
the non-neighborhood of each vertex": every node sends Algorithm 3's power
sums twice — once for ``N(v)``, once for ``V \\ ({v} ∪ N(v))`` — doubling
the message (still ``O(k² log n)``).  The message is Algorithm 3's
``(ID, deg, b_1..b_k)`` followed by the co-sums ``b̄_1..b̄_k`` at the same
widths; the referee unpacks the first part with
:func:`~repro.protocols.powersum.decode_powersum_messages` and slices the
co-sums at the same fixed offsets.

The referee's pruning now fires on either side: a vertex whose *current*
degree is ≤ k decodes its neighbourhood from ``b``; one whose current
co-degree is ≤ k decodes its co-neighbourhood from ``b̄`` and takes the
complement within the remaining vertex set.  Removal updates both vectors:
neighbours lose ``x^p`` from ``b``; non-neighbours lose it from ``b̄``.

This reconstructs e.g. complements of forests — dense graphs far outside
plain bounded degeneracy.
"""

from __future__ import annotations

from repro.bits.sizing import id_width
from repro.bits.writer import BitWriter
from repro.errors import DecodeError, GraphError, RecognitionFailure
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.protocol import ReconstructionProtocol, require_one_message_per_vertex
from repro.protocols.powersum import (
    _sum_fields,
    compute_power_sums,
    decode_neighborhood_newton,
    decode_powersum_messages,
    encode_powersum_message,
    powersum_message_bits,
)
from repro.registry import register

__all__ = ["GeneralizedDegeneracyProtocol", "generalized_degeneracy"]


def generalized_degeneracy(g: LabeledGraph) -> int:
    """The smallest k admitting a Section III.E ordering (ground truth helper).

    Greedy is exact here for the same reason as for plain degeneracy: if any
    valid ordering exists for value k, always-prune-a-currently-valid-vertex
    cannot get stuck (pruning preserves the property that the suffix of the
    witness ordering remains valid).  Computed by binary search over greedy
    feasibility, ``O(n² log n)`` adjacency-set work per probe.
    """
    lo, hi = 0, max(0, g.n - 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if _greedy_feasible(g, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _greedy_feasible(g: LabeledGraph, k: int) -> bool:
    remaining = set(g.vertices())
    deg = {v: g.degree(v) for v in g.vertices()}
    while remaining:
        size = len(remaining)
        pick = None
        for v in remaining:
            if deg[v] <= k or (size - 1 - deg[v]) <= k:
                pick = v
                break
        if pick is None:
            return False
        remaining.discard(pick)
        for w in g.neighbors(pick):
            if w in remaining:
                deg[w] -= 1
    return True


class GeneralizedDegeneracyProtocol(ReconstructionProtocol):
    """One-round frugal reconstruction for generalized degeneracy ≤ k."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise GraphError(f"k must be >= 1, got {k}")
        self.k = k
        self.name = f"generalized-degeneracy(k={k})"

    # ------------------------------------------------------------------ #
    # local phase: both-sides power sums
    # ------------------------------------------------------------------ #

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        w = id_width(n)
        co = frozenset(range(1, n + 1)) - neighborhood - {i}
        writer = BitWriter()
        writer.write_many(
            (b, (p + 1) * w) for p, b in enumerate(compute_power_sums(co, self.k), start=1)
        )
        return encode_powersum_message(n, self.k, i, neighborhood).concat(
            Message.from_writer(writer)
        )

    # ------------------------------------------------------------------ #
    # global phase: two-sided pruning
    # ------------------------------------------------------------------ #

    def global_(self, n: int, messages: list[Message]) -> LabeledGraph:
        require_one_message_per_vertex(n, messages)
        if n == 0:
            return LabeledGraph(0)
        w = id_width(n)
        k = self.k
        head_bits = powersum_message_bits(n, k)
        co_bits = head_bits - 2 * w  # the co-sums: Algorithm 3's sums, no ID or degree
        for msg in messages:
            if msg.bits != head_bits + co_bits:
                raise DecodeError(
                    f"malformed generalized-degeneracy message: {msg.bits} bits, "
                    f"expected {head_bits + co_bits}"
                )
        records = decode_powersum_messages(
            n, k, [Message(msg.acc >> co_bits, head_bits) for msg in messages]
        )
        co_fields = _sum_fields(w, k, co_bits)
        state: dict[int, tuple[int, list[int], list[int]]] = {}
        for (v, d, b), msg in zip(records, messages):
            if v in state:
                raise DecodeError(f"bad or duplicate vertex ID {v}")
            state[v] = (d, b, [(msg.acc >> s) & m for s, m in co_fields])

        h = LabeledGraph(n)
        remaining = set(state)
        while remaining:
            size = len(remaining)
            x = None
            use_complement = False
            for v in remaining:
                d = state[v][0]
                if d <= k:
                    x = v
                    break
                if size - 1 - d <= k:
                    x = v
                    use_complement = True
                    break
            if x is None:
                raise RecognitionFailure(
                    f"generalized degeneracy exceeds {k}",
                    stuck_vertices=frozenset(remaining),
                )
            d, b, bc = state[x]
            if use_complement:
                co_nbrs = decode_neighborhood_newton(size - 1 - d, tuple(bc), n)
                nbrs = remaining - co_nbrs - {x}
            else:
                nbrs = decode_neighborhood_newton(d, tuple(b), n)
            if x in nbrs or not nbrs <= remaining:
                raise DecodeError(f"vertex {x} decoded neighbours outside the remaining graph")
            remaining.discard(x)
            for v in remaining:
                d_v, b_v, bc_v = state[v]
                target = b_v if v in nbrs else bc_v
                xp = 1
                for p in range(k):
                    xp *= x
                    target[p] -= xp
                    if target[p] < 0:
                        raise DecodeError(f"negative power sum at vertex {v}: corrupt messages")
                if v in nbrs:
                    h.add_edge(x, v)
                    state[v] = (d_v - 1, b_v, bc_v)
        return h



@register("generalized_degeneracy", kind="protocol",
          capabilities=("reconstruction", "deterministic"),
          summary="Section III.E: reconstruction pruning on the graph or its "
                  "complement.")
def _build_generalized_degeneracy(n: int, k: int = 1) -> "GeneralizedDegeneracyProtocol":
    return GeneralizedDegeneracyProtocol(k)
