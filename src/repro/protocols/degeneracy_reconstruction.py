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

:func:`prune_decode` is the one Algorithm-4 loop in the package.  Section
III.E (:mod:`~repro.protocols.generalized_degeneracy`) runs it with its
co-side rule on: when no vertex of degree ≤ k is left, a vertex of current
co-degree ``|R|−1−d ≤ k`` decodes its co-neighbourhood from
``T_p − x^p − b_p``, with ``T_p = Σ_{w∈R} w^p`` kept over the remaining
set ``R``, and its neighbours are ``R`` minus those and ``x``; the step then
goes on as above.  With the rule off the loop is Theorem 5's unchanged.

Complexity: the messages are unpacked in one batch
(:func:`~repro.protocols.powersum.decode_powersum_messages`: one length
check and ``k + 2`` fixed-offset slices per message).  The worklist is a
LIFO stack of vertices of current degree ≤ k (any such vertex may go next,
so no priority queue is kept), and the loop body is then
``O(decode + k·deg)``: the check that the decoded neighbours are still
unpruned is ``O(k)`` set probes, and each
edge goes straight into the output's adjacency sets, which become one
:class:`~repro.graphs.labeled.LabeledGraph` at the end.  Degrees 0, 1 and
2 decode inline in ``O(1)`` big-int operations (``p_1`` itself, or
``(p_1 ± r)/2`` with ``r = isqrt(2p_2 - p_1²)``), and degree 3 in ``O(1)``
as well: :func:`~repro.protocols.powersum.decode_neighborhood_newton`
solves the cubic in floats and checks the rounded roots exactly in ints.
Larger degrees, and any miss, take the Newton route, ``O(k² log n)``
big-int operations per neighbour, so the whole global phase is about
``O(n·k³ log n)`` — within the paper's ``O(n²)`` for fixed k.  Lemma 3's
lookup table is the paper's other route to the same decode; ``repro
experiment EXP-L3`` measures it.
"""

from __future__ import annotations

import math

from repro.errors import DecodeError, GraphError, RecognitionFailure
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.protocol import DecisionProtocol, ReconstructionProtocol
from repro.protocols.powersum import (
    compute_power_sums,
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
    complement: bool = False,
) -> LabeledGraph:
    """The Algorithm-4 loop, shared by Theorem 5 and Section III.E.

    ``records`` is a list of ``[vertex, degree, power_sums]`` triples (power
    sums as a mutable list); it is consumed destructively.  Raises
    :class:`RecognitionFailure` when no vertex of degree ≤ k remains while
    vertices are unpruned, and :class:`DecodeError` on inconsistent sums.

    ``complement`` turns on Section III.E's co-side rule
    (:func:`_prune_co_side`) for when the degree worklist is empty.
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
    totals = list(compute_power_sums(remaining, k)) if complement else []
    while remaining:
        x = None
        while worklist:
            cand = worklist.pop()
            if cand in remaining and state[cand][0] <= k:
                x = cand
                break
        if x is None:
            if not complement:
                raise RecognitionFailure(
                    f"no vertex of degree <= {k} remains: graph degeneracy exceeds {k}",
                    stuck_vertices=frozenset(remaining),
                )
            x, nbrs = _prune_co_side(n, k, state, remaining, totals)
        else:
            degree, sums = state[x]
            if degree == 0:
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
        if complement:
            totals = [t - x**p for p, t in enumerate(totals, start=1)]
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


def _prune_co_side(
    n: int,
    k: int,
    state: dict[int, tuple[int, list[int]]],
    remaining: set[int],
    totals: list[int],
) -> tuple[int, set[int]]:
    """Section III.E's rule: some ``x`` of current co-degree ≤ k, and its neighbours.

    ``totals`` holds ``T_p = Σ_{w∈R} w^p`` over the remaining set ``R``, so
    ``x``'s co-sums are ``T_p − x^p − b_p``; ``O(|R|)`` work.
    """
    last = len(remaining) - 1
    for x in remaining:
        degree, sums = state[x]
        if last - degree <= k:
            break
    else:
        raise RecognitionFailure(
            f"no vertex of degree or co-degree <= {k} remains: "
            f"generalized degeneracy exceeds {k}",
            stuck_vertices=frozenset(remaining),
        )
    if degree > last:
        raise DecodeError(
            f"vertex {x} has current degree {degree} but only {last} other "
            f"vertices remain: corrupt messages"
        )
    co_sums = [t - x**p - b for p, (t, b) in enumerate(zip(totals, sums), start=1)]
    co = decode_neighborhood_newton(last - degree, co_sums, n)
    if x in co or not co <= remaining:
        raise DecodeError(
            f"vertex {x} decoded co-neighbours {sorted(co)} outside the remaining graph"
        )
    return x, remaining - co - {x}


class DegeneracyReconstructionProtocol(ReconstructionProtocol):
    """The paper's headline protocol: Theorem 5.

    Parameters
    ----------
    k:
        The degeneracy bound all participants agree on ("each vertex needs
        to know the value of k").
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise GraphError(f"k must be >= 1, got {k}")
        self.k = k
        # ",newton" stays in the name: violation records quote it in their errors
        self.name = f"degeneracy-reconstruction(k={k},newton)"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        return encode_powersum_message(n, self.k, i, neighborhood)

    def global_(self, n: int, messages: list[Message]) -> LabeledGraph:
        records = decode_powersum_messages(n, self.k, messages)
        return prune_decode(n, self.k, records)


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
def _build_degeneracy(n: int, k: int = 2) -> "DegeneracyReconstructionProtocol":
    return DegeneracyReconstructionProtocol(k)
