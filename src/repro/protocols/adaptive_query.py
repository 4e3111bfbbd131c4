"""Adaptive neighbour-query reconstruction — the rounds-for-bits endpoint.

The conclusion asks what a fixed number of rounds buys.  This protocol is
the extreme point of that trade-off: with ``Δ + 1`` rounds of *strictly*
frugal messages (one vertex ID each way per round), the referee
reconstructs **any** graph, bounded degeneracy or not:

* round r: every node sends its r-th smallest neighbour's ID (0 when it has
  fewer than r neighbours), plus, in round 0, its degree;
* the referee's feedback is a single *continue/stop* bit per node (it stops
  early once every degree is exhausted).

Total cost is ``O(Δ log n)`` bits per node spread over ``Δ + 1`` rounds —
pitted against Theorem 5's one-round ``O(k² log n)``, this is the
quantitative version of "more rounds buy generality": one round suffices
for degeneracy-bounded graphs, while max-degree-many rounds suffice for
everything (and, by Theorem 2, *some* growth with n is unavoidable for
one-round protocols on general graphs).
"""

from __future__ import annotations

from typing import Any

from repro.bits.sizing import id_width
from repro.bits.writer import BitWriter
from repro.errors import BitstreamError, DecodeError
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.multiround import MultiRoundProtocol

__all__ = ["AdaptiveQueryReconstruction"]


class AdaptiveQueryReconstruction(MultiRoundProtocol):
    """Reconstruct any graph in (max degree + 1) frugal rounds."""

    name = "adaptive-query-reconstruction"

    def __init__(self) -> None:
        self._state: dict[str, Any] = {}

    def rounds(self, n: int) -> int:
        return n + 1  # ceiling; the referee stops after max-degree rounds

    # ------------------------------------------------------------------ #
    # node side
    # ------------------------------------------------------------------ #

    def node_step(
        self, n: int, i: int, neighborhood: frozenset[int], round_idx: int, inbox: Message
    ) -> Message:
        w = id_width(n) if n else 1
        writer = BitWriter()
        if round_idx == 0:
            writer.write_bits(len(neighborhood), w)
        nbrs = sorted(neighborhood)
        nth = nbrs[round_idx] if round_idx < len(nbrs) else 0
        writer.write_bits(nth, w)
        return Message.from_writer(writer)

    # ------------------------------------------------------------------ #
    # referee side
    # ------------------------------------------------------------------ #

    def referee_step(self, n: int, round_idx: int, messages: list[Message]) -> tuple[str, Any]:
        w = id_width(n) if n else 1
        if round_idx == 0:
            self._state = {"graph": LabeledGraph(n), "degrees": [0] * n}
        g: LabeledGraph = self._state["graph"]
        degrees: list[int] = self._state["degrees"]
        for v, msg in enumerate(messages, start=1):
            reader = msg.reader()
            try:
                if round_idx == 0:
                    degrees[v - 1] = reader.read_bits(w)
                nth = reader.read_bits(w)
                reader.expect_exhausted()
            except BitstreamError as exc:
                raise DecodeError(f"malformed adaptive-query message: {exc}") from exc
            if nth:
                if not 1 <= nth <= n or nth == v:
                    raise DecodeError(f"node {v} reported invalid neighbour {nth}")
                if round_idx >= degrees[v - 1]:
                    raise DecodeError(f"node {v} reported a neighbour beyond its degree")
                g.add_edge(v, nth)
        if round_idx + 1 >= max(degrees, default=0):
            self._verify(g, degrees)
            return "output", g
        return "continue", [Message.empty() for _ in range(n)]

    @staticmethod
    def _verify(g: LabeledGraph, degrees: list[int]) -> None:
        for v in g.vertices():
            if g.degree(v) != degrees[v - 1]:
                raise DecodeError(
                    f"node {v} announced degree {degrees[v - 1]} but reported "
                    f"{g.degree(v)} distinct neighbours"
                )
