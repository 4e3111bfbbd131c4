"""Algorithm 4 / Theorem 5: one-round frugal reconstruction of degeneracy-≤k graphs.

Local phase: every node sends Algorithm 3's ``(ID, deg, b_1..b_k)`` —
``O(k² log n)`` bits (Lemma 2).

Global phase (Algorithm 4): the referee keeps, per vertex, its *current*
degree and power sums — i.e. those of the subgraph induced by not-yet-pruned
vertices.  It repeatedly takes any vertex ``x`` of current degree ≤ k,
decodes its current neighbourhood (Theorem 4: unique), records those edges,
and "removes" ``x`` by decrementing each neighbour's degree and subtracting
``ID(x)^p`` from its ``p``-th power sum.  A degeneracy-≤k graph always
offers a prunable vertex, so the loop terminates with the exact graph; the
elimination order is *discovered* by the referee, never transmitted.

The recognition variant is the paper's closing remark of Section III: reject
iff the pruning process ever finds no vertex of degree ≤ k.

Complexity: the messages are unpacked in one batch
(:func:`~repro.protocols.powersum.decode_powersum_messages`: one length
check and ``k + 2`` fixed-offset slices per message).  With a min-degree
worklist the loop body is then ``O(decode + k·deg)``: the check that the
decoded neighbours are still unpruned is ``O(k)`` set probes, and each
edge goes straight into the output's adjacency sets, which become one
:class:`~repro.graphs.labeled.LabeledGraph` at the end.  Degrees 0, 1 and
2 decode inline in ``O(1)`` big-int operations (``p_1`` itself, or
``(p_1 ± r)/2`` with ``r = isqrt(2p_2 - p_1²)``); larger degrees take the
Newton decoder, ``O(k² log n)`` big-int operations per neighbour, so the
whole global phase is about ``O(n·k³ log n)`` — within the paper's
``O(n²)`` for fixed k.  A prebuilt
:class:`~repro.protocols.powersum.PowerSumLookupTable` makes decodes
``O(k)`` dictionary work instead.
"""

from __future__ import annotations

import math

from repro.errors import DecodeError, GraphError, RecognitionFailure
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.protocol import DecisionProtocol, ReconstructionProtocol
from repro.protocols.powersum import (
    PowerSumLookupTable,
    decode_neighborhood_newton,
    decode_powersum_messages,
    encode_powersum_message,
)
from repro.registry import register

__all__ = ["DegeneracyReconstructionProtocol", "DegeneracyRecognitionProtocol", "prune_decode"]


def prune_decode(
    n: int,
    k: int,
    records: list[tuple[int, int, list[int]]],
    *,
    table: PowerSumLookupTable | None = None,
) -> LabeledGraph:
    """The Algorithm-4 loop, shared by reconstruction and recognition.

    ``records`` is a list of ``[vertex, degree, power_sums]`` triples (power
    sums as a mutable list); it is consumed destructively.  Raises
    :class:`RecognitionFailure` when no vertex of degree ≤ k remains while
    vertices are unpruned, and :class:`DecodeError` on inconsistent sums.
    """
    state: dict[int, tuple[int, list[int]]] = {}
    for vertex, degree, sums in records:
        if vertex in state:
            raise DecodeError(f"duplicate message for vertex {vertex}")
        if not 1 <= vertex <= n:
            raise DecodeError(f"record for vertex {vertex} outside 1..{n}")
        state[vertex] = (degree, sums)
    if len(state) != n:
        raise DecodeError(f"expected {n} distinct vertex records, got {len(state)}")

    # ``remaining`` ⊆ 1..n and every decoded neighbour is checked against
    # it, so the edges go straight into adjacency sets: one graph at the end
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    m = 0
    # worklist of currently-prunable vertices; membership re-checked on pop
    worklist = [v for v, (d, _) in state.items() if d <= k]
    remaining = set(state)
    while remaining:
        x = None
        while worklist:
            cand = worklist.pop()
            if cand in remaining and state[cand][0] <= k:
                x = cand
                break
        if x is None:
            raise RecognitionFailure(
                f"no vertex of degree <= {k} remains: graph degeneracy exceeds {k}",
                stuck_vertices=frozenset(remaining),
            )
        degree, sums = state[x]
        if table is not None:
            nbrs = table.lookup_partial(degree, tuple(sums))
        elif degree == 0:
            nbrs = ()
        elif degree == 1:
            nbrs = (sums[0],)
        elif degree == 2:
            # roots (p1 ± r)/2 of x² - p1·x + (p1² - p2)/2; a square disc
            # has r ≡ p1 (mod 2), anything else takes the reference path.
            # A frozenset built in ascending order, as the reference
            # returns it: its iteration order sets the worklist order, and
            # so the outcome on corrupt input.
            p1 = sums[0]
            disc = 2 * sums[1] - p1 * p1
            r = math.isqrt(disc) if disc > 0 else 0
            if r and r * r == disc:
                nbrs = frozenset(((p1 - r) // 2, (p1 + r) // 2))
            else:
                nbrs = decode_neighborhood_newton(2, sums, n)
        else:
            nbrs = decode_neighborhood_newton(degree, sums, n)
        for v in nbrs:
            if v == x or v not in remaining:
                raise DecodeError(
                    f"vertex {x} decoded neighbours {sorted(nbrs)} outside the remaining graph"
                )
        remaining.discard(x)
        adj[x].update(nbrs)
        m += len(nbrs)
        for v in nbrs:
            adj[v].add(x)
            d_v, s_v = state[v]
            if d_v == 0:
                raise DecodeError(
                    f"vertex {x} names vertex {v} as a neighbour, but vertex "
                    f"{v} has current degree 0: corrupt messages"
                )
            xp = 1
            for p in range(len(s_v)):
                xp *= x
                s_v[p] -= xp
                if s_v[p] < 0:
                    raise DecodeError(f"negative power sum at vertex {v}: corrupt messages")
            state[v] = (d_v - 1, s_v)
            if d_v - 1 <= k:
                worklist.append(v)
    return LabeledGraph._from_adjacency(n, adj, m)


class DegeneracyReconstructionProtocol(ReconstructionProtocol):
    """The paper's headline protocol: Theorem 5.

    Parameters
    ----------
    k:
        The degeneracy bound all participants agree on ("each vertex needs
        to know the value of k").
    decoder:
        ``"newton"`` (default, no preprocessing) or ``"table"`` (Lemma 3's
        lookup table, built lazily per n and cached).
    """

    def __init__(self, k: int, *, decoder: str = "newton") -> None:
        if k < 1:
            raise GraphError(f"k must be >= 1, got {k}")
        if decoder not in ("newton", "table"):
            raise GraphError(f"decoder must be 'newton' or 'table', got {decoder!r}")
        self.k = k
        self.decoder = decoder
        self.name = f"degeneracy-reconstruction(k={k},{decoder})"
        self._tables: dict[int, PowerSumLookupTable] = {}

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        return encode_powersum_message(n, self.k, i, neighborhood)

    def global_(self, n: int, messages: list[Message]) -> LabeledGraph:
        records = decode_powersum_messages(n, self.k, messages)
        table = self._table_for(n) if self.decoder == "table" else None
        return prune_decode(n, self.k, records, table=table)

    def _table_for(self, n: int) -> PowerSumLookupTable:
        if n not in self._tables:
            self._tables[n] = PowerSumLookupTable(n, self.k)
        return self._tables[n]


class DegeneracyRecognitionProtocol(DecisionProtocol):
    """Recognition variant: *is* the graph of degeneracy at most k?

    Same messages as the reconstruction protocol; the referee answers False
    exactly when the pruning process gets stuck (Section III's closing
    remark).
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise GraphError(f"k must be >= 1, got {k}")
        self.k = k
        self.name = f"degeneracy-recognition(k={k})"
        self._inner = DegeneracyReconstructionProtocol(k)

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        return self._inner.local(n, i, neighborhood)

    def global_(self, n: int, messages: list[Message]) -> bool:
        try:
            self._inner.global_(n, messages)
        except RecognitionFailure:
            return False
        return True



@register("degeneracy", kind="protocol",
          capabilities=("reconstruction", "deterministic", "frugal"),
          summary="Algorithm 4: power-sum reconstruction of degeneracy-<=k graphs "
                  "(Theorem 5).")
def _build_degeneracy(n: int, k: int = 2, decoder: str = "newton") -> "DegeneracyReconstructionProtocol":
    return DegeneracyReconstructionProtocol(k, decoder=decoder)
