"""AGM sketch connectivity — one round, O(log³ n) bits per node, public coins.

Every node ``v`` sketches its *signed edge-incidence vector*: coordinate
``e = {v, w}`` holds ``+1`` if ``v = min(v, w)`` and ``-1`` otherwise.  The
magic identity: summing these vectors over a vertex set ``S`` cancels every
edge internal to ``S`` and leaves ``±1`` exactly on the boundary edges — so
an L0-sample of the summed sketch is an outgoing edge of ``S``.

The referee therefore runs Borůvka without ever seeing the graph: start
with singleton components; each round, sum the (that round's) sketches of
every component, sample one outgoing edge per component, union.  Components
halve (in expectation) per round, so ``O(log n)`` rounds — each needing an
*independent* sketch, whence the ``O(log n) × O(log n) levels × O(log n)
bits`` = ``O(log³ n)`` bits per node.

This answers the paper's open question in the affirmative **given public
randomness and a polylog (not log) budget** — the trade the literature
settled on after the paper appeared.  The protocol is an honest
:class:`~repro.model.protocol.OneRoundProtocol`: the local function is pure
(seeded parameters are shared randomness), and all counters travel through
bit-accounted messages.

One-sided error: a component whose sampler fails is left unmerged, so the
protocol may call a connected graph disconnected, never the reverse once
the fingerprint holds (boundary edges reported are genuine whp).  The
documented failure probability is **at most 5%** per run: a false
"disconnected" on a connected input happens for at most one public seed
in twenty.  ``tests/sketching/test_connectivity.py`` gates this with an
exact one-sided 99% Clopper–Pearson upper bound over many seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.message import Message
from repro.model.protocol import DecisionProtocol, require_one_message_per_vertex
from repro.sketching.agm import (
    Bank,
    bank_offsets,
    boruvka,
    derive_bank,
    edge_index,
    edge_pair,
    encode,
    incidence_updates,
)
from repro.registry import register

__all__ = [
    "AGMConnectivityProtocol",
    "SketchReport",
    "edge_index",
    "edge_pair",
    "incidence_updates",
]


@dataclass(frozen=True)
class SketchReport:
    """Outcome of one sketch-connectivity run."""

    connected: bool
    n: int
    rounds_used: int
    forest_edges: tuple[tuple[int, int], ...]
    sampler_failures: int
    bits_per_node: int


class AGMConnectivityProtocol(DecisionProtocol):
    """One-round randomized connectivity in the referee model.

    Parameters
    ----------
    seed:
        The public random string all parties share.
    rounds:
        Borůvka phases (defaults to ``2·ceil(log2 n) + 2``, computed per n).
    """

    def __init__(self, seed: int = 0, rounds: int | None = None) -> None:
        self.seed = seed
        self._rounds_override = rounds
        self.name = f"agm-connectivity(seed={seed})"

    # ------------------------------------------------------------------ #
    # shared parameter derivation
    # ------------------------------------------------------------------ #

    def rounds_for(self, n: int) -> int:
        if self._rounds_override is not None:
            return self._rounds_override
        return 2 * max(1, (n - 1).bit_length()) + 2

    def bank(self, n: int) -> Bank:
        """The message layout: one sampler per Borůvka round."""
        return derive_bank(n, self.seed, n, self.rounds_for(n))

    # ------------------------------------------------------------------ #
    # local phase
    # ------------------------------------------------------------------ #

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        if n < 2:
            return Message.empty()
        return encode([(self.bank(n), incidence_updates(n, i, neighborhood))])

    # ------------------------------------------------------------------ #
    # global phase: Borůvka on sketches
    # ------------------------------------------------------------------ #

    def global_(self, n: int, messages: list[Message]) -> bool:
        return self.decode_and_solve(n, messages).connected

    def decode_and_solve(self, n: int, messages: list[Message]) -> SketchReport:
        """Full global phase, returning the detailed report."""
        require_one_message_per_vertex(n, messages)
        if n <= 1:
            return SketchReport(True, n, 0, (), 0, 0)
        bank = self.bank(n)
        bank_offsets(messages, [bank])
        forest, rounds_used, failures = boruvka(bank, [(msg, 0) for msg in messages])
        return SketchReport(
            connected=len(forest) == n - 1,
            n=n,
            rounds_used=rounds_used,
            forest_edges=tuple(sorted(forest)),
            sampler_failures=failures,
            bits_per_node=max((msg.bits for msg in messages), default=0),
        )


@register("agm_connectivity", kind="protocol",
          capabilities=("decision", "sketching", "randomized"),
          summary="AGM linear-sketch connectivity: one round, O(log^3 n) "
                  "bits/node, one-sided error.")
def _build_agm_connectivity(n: int, sketch_seed: int = 0) -> "AGMConnectivityProtocol":
    return AGMConnectivityProtocol(seed=sketch_seed)
