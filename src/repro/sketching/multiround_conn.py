"""Sketch connectivity streamed over rounds — the conclusion's trade-off, instantiated.

The paper closes by asking what a *fixed number of rounds* buys.  Here is a
concrete data point: the one-round AGM protocol ships all ``O(log n)``
Borůvka phases' sketches at once (``O(log³ n)`` bits per message); this
variant sends **one phase's sketch per round** — ``O(log² n)`` bits per
round-message — because later phases' sketches are only *consumed* after
earlier merges, so they can just as well be transmitted later.

Same total bits, same output, but a per-round message budget one log-factor
closer to frugality.  (Squeezing further — one *level* per round — would
reach ``O(log n)``-bit messages over ``O(log² n)`` rounds; that refinement
is an exercise left in EXPERIMENTS.md.)

The referee needs no feedback channel (nodes' sketches don't depend on the
merge state), so every referee→node message is empty — this is genuinely a
"simultaneous messages × R rounds" protocol.

It shares the one-round protocol's banks and Borůvka rounds, and so its
error: one-sided (a split input is never called connected), with a
documented failure probability of **at most 5%** per run on a connected
input.  ``tests/sketching/test_connectivity.py`` gates this with an exact
one-sided 99% Clopper–Pearson upper bound over 160 public seeds.
"""

from __future__ import annotations

from typing import Any

from repro.graphs.unionfind import UnionFind
from repro.model.message import Message
from repro.model.multiround import MultiRoundProtocol
from repro.model.protocol import require_one_message_per_vertex
from repro.sketching.agm import Bank, bank_offsets, boruvka_round, encode, incidence_updates
from repro.sketching.connectivity import AGMConnectivityProtocol

__all__ = ["MultiRoundSketchConnectivity"]


class MultiRoundSketchConnectivity(MultiRoundProtocol):
    """One Borůvka phase per communication round."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.name = f"multiround-sketch-connectivity(seed={seed})"
        self._inner = AGMConnectivityProtocol(seed=seed)
        self._state: dict[str, Any] = {}

    def rounds(self, n: int) -> int:
        return self._inner.rounds_for(n)

    # ------------------------------------------------------------------ #
    # node side: round r ships only the round-r sampler
    # ------------------------------------------------------------------ #

    def node_step(
        self, n: int, i: int, neighborhood: frozenset[int], round_idx: int, inbox: Message
    ) -> Message:
        if n < 2:
            return Message.empty()
        return encode([(self._bank(n, round_idx), incidence_updates(n, i, neighborhood))])

    def _bank(self, n: int, round_idx: int) -> Bank:
        # a one-round view of the cached bank, sharing its power table
        bank = self._inner.bank(n)
        return Bank(n, (bank.params[round_idx],), (bank.powers[round_idx],))

    # ------------------------------------------------------------------ #
    # referee side: one merge phase per round, empty feedback
    # ------------------------------------------------------------------ #

    def referee_step(self, n: int, round_idx: int, messages: list[Message]) -> tuple[str, Any]:
        require_one_message_per_vertex(n, messages)
        if round_idx == 0:
            self._state = {"uf": UnionFind(n), "components": max(n, 1)}
        if n >= 2 and self._state["components"] > 1:
            bank = self._bank(n, round_idx)
            bank_offsets(messages, [bank])
            edges, _ = boruvka_round(self._state["uf"], bank, 0, [(msg, 0) for msg in messages])
            self._state["components"] -= len(edges)
        if round_idx == self.rounds(n) - 1 or self._state["components"] == 1:
            return "output", self._state["components"] == 1
        return "continue", [Message.empty() for _ in range(n)]
