"""One-round degeneracy *estimation* — a derived protocol the paper enables.

Observation: Algorithm 3's message for parameter ``k_max`` *contains* the
message for every smaller ``k`` (the power sums are a prefix).  So from one
round of ``k_max``-messages the referee can determine the **exact**
degeneracy of the graph, provided it is at most ``k_max``: binary-search
over ``k ≤ k_max``, running Algorithm 4's pruning feasibility check per
probe.  Feasibility is monotone in k (a k-elimination order is also a
(k+1)-elimination order), so the search is sound.

One round, ``O(k_max² log n)`` bits per node, output
``min(degeneracy(G), k_max + 1)`` — where ``k_max + 1`` means "above the
bound" (the recognition semantics of Section III, sharpened to a number).
"""

from __future__ import annotations

from repro.errors import GraphError, RecognitionFailure
from repro.model.message import Message
from repro.model.protocol import OneRoundProtocol
from repro.protocols.degeneracy_reconstruction import prune_decode
from repro.protocols.powersum import decode_powersum_messages, encode_powersum_message

__all__ = ["DegeneracyEstimationProtocol"]


class DegeneracyEstimationProtocol(OneRoundProtocol):
    """Compute ``min(degeneracy(G), k_max + 1)`` in one frugal round."""

    def __init__(self, k_max: int) -> None:
        if k_max < 1:
            raise GraphError(f"k_max must be >= 1, got {k_max}")
        self.k_max = k_max
        self.name = f"degeneracy-estimation(k_max={k_max})"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        return encode_powersum_message(n, self.k_max, i, neighborhood)

    def global_(self, n: int, messages: list[Message]) -> int:
        records = decode_powersum_messages(n, self.k_max, messages)
        if n == 0 or all(degree == 0 for _, degree, _ in records):
            return 0

        def feasible(k: int) -> bool:
            trial = [(vertex, degree, list(sums)) for vertex, degree, sums in records]
            try:
                prune_decode(n, k, trial)
            except RecognitionFailure:
                return False
            return True

        if not feasible(self.k_max):
            return self.k_max + 1
        lo, hi = 1, self.k_max  # degeneracy >= 1: some vertex has an edge
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo
