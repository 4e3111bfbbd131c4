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
"""

from __future__ import annotations

from typing import Any

from repro.bits.writer import BitWriter
from repro.errors import DecodeError, SketchFailure
from repro.model.message import Message
from repro.model.multiround import MultiRoundProtocol
from repro.sketching.connectivity import (
    AGMConnectivityProtocol,
    _UnionFind,
    _unzigzag,
    _zigzag,
    edge_pair,
    incidence_updates,
)
from repro.sketching.l0sampler import L0Sampler

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
        params = self._inner.params_for(n, round_idx)
        sampler = L0Sampler(params)
        sampler.update_many(incidence_updates(n, i, neighborhood))
        w0, w1 = self._inner._widths(n)
        writer = BitWriter()
        writer.write_many(
            field
            for c0, c1, c2 in sampler.counters()
            for field in ((_zigzag(c0), w0), (_zigzag(c1), w1), (c2, 61))
        )
        return Message.from_writer(writer)

    # ------------------------------------------------------------------ #
    # referee side: one merge phase per round, empty feedback
    # ------------------------------------------------------------------ #

    def referee_step(self, n: int, round_idx: int, messages: list[Message]) -> tuple[str, Any]:
        if round_idx == 0:
            self._state = {"uf": _UnionFind(n), "components": max(n, 1)}
        uf: _UnionFind = self._state["uf"]
        if n >= 2 and self._state["components"] > 1:
            params = self._inner.params_for(n, round_idx)
            w0, w1 = self._inner._widths(n)
            agg: dict[int, L0Sampler] = {}
            for v, msg in enumerate(messages, start=1):
                reader = msg.reader()
                counters = []
                try:
                    for _ in range(params.levels):
                        c0 = _unzigzag(reader.read_bits(w0))
                        c1 = _unzigzag(reader.read_bits(w1))
                        c2 = reader.read_bits(61)
                        counters.append((c0, c1, c2))
                    reader.expect_exhausted()
                except Exception as exc:
                    raise DecodeError(f"malformed round-{round_idx} sketch: {exc}") from exc
                sampler = L0Sampler.from_counters(params, counters)
                root = uf.find(v)
                agg[root] = agg[root].merged(sampler) if root in agg else sampler
            for root, sampler in agg.items():
                try:
                    hit = sampler.sample()
                except SketchFailure:
                    continue
                if hit is None:
                    continue
                u, v = edge_pair(n, hit[0])
                if uf.union(u, v):
                    self._state["components"] -= 1
        if round_idx == self.rounds(n) - 1 or self._state["components"] == 1:
            return "output", self._state["components"] == 1
        return "continue", [Message.empty() for _ in range(n)]
