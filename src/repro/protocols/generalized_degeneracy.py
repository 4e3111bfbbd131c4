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

The co-sums carry nothing of their own: with ``S_p = Σ_{w≤n} w^p``, node
``i`` sends ``b̄_p = S_p − i^p − b_p``.  The referee checks exactly that
for every message (a mismatch is a :class:`~repro.errors.DecodeError`),
then drops the co-sums and runs Algorithm 4's one pruning loop,
:func:`~repro.protocols.degeneracy_reconstruction.prune_decode`, with its
co-side rule on: once no vertex of current degree ≤ k remains, a vertex
of current co-degree ≤ k decodes its co-neighbourhood from
``T_p − x^p − b_p``, where ``T_p`` sums ``w^p`` over the remaining
vertices, and its neighbours are the rest of the remaining set.  Removal
updates only the neighbours' ``b`` and the ``k`` totals ``T_p``.

This reconstructs e.g. complements of forests — dense graphs far outside
plain bounded degeneracy.
"""

from __future__ import annotations

from repro.bits.sizing import id_width
from repro.bits.writer import BitWriter
from repro.errors import DecodeError, GraphError
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.protocol import ReconstructionProtocol, require_one_message_per_vertex
from repro.protocols.degeneracy_reconstruction import prune_decode
from repro.protocols.powersum import (
    _sum_fields,
    compute_power_sums,
    decode_powersum_messages,
    encode_powersum_message,
    powersum_message_bits,
)
from repro.registry import register

__all__ = ["GeneralizedDegeneracyProtocol", "generalized_degeneracy"]


def generalized_degeneracy(g: LabeledGraph) -> int:
    """The smallest k admitting a Section III.E ordering (ground truth helper).

    One greedy pass: repeatedly delete a vertex minimising ``min(d, |R|-1-d)``
    over the remaining set ``R`` and return the largest value met.  Exact,
    because deleting vertices never raises a vertex's degree or co-degree:
    a vertex valid now stays valid, so taking the cheapest one never hurts.
    ``O(n²)`` dictionary work.
    """
    deg = {v: g.degree(v) for v in g.vertices()}
    k = 0
    while deg:
        last = len(deg) - 1
        x = min(deg, key=lambda v: min(deg[v], last - deg[v]))
        k = max(k, min(deg[x], last - deg[x]))
        del deg[x]
        for v in g.neighbors(x):
            if v in deg:
                deg[v] -= 1
    return k


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
    # global phase: check the co-sums, then Algorithm 4 on either side
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
        # the co-sums are derived, b̄_p = S_p - i^p - b_p: check and drop them
        totals = compute_power_sums(set(range(1, n + 1)), k)
        co_fields = _sum_fields(w, k, co_bits)
        for (v, _, b), msg in zip(records, messages):
            if [(msg.acc >> s) & m for s, m in co_fields] != [
                t - v**p - b_p for p, (t, b_p) in enumerate(zip(totals, b), start=1)
            ]:
                raise DecodeError(f"vertex {v} sent co-sums other than S_p - {v}^p - b_p")
        return prune_decode(n, k, records, complement=True)



@register("generalized_degeneracy", kind="protocol",
          capabilities=("reconstruction", "deterministic"),
          summary="Section III.E: reconstruction pruning on the graph or its "
                  "complement.")
def _build_generalized_degeneracy(n: int, k: int = 1) -> "GeneralizedDegeneracyProtocol":
    return GeneralizedDegeneracyProtocol(k)
