"""One-round randomized bipartiteness — the paper's *other* open question.

Conclusion: "Another natural question is whether one can find a frugal
one-round protocol deciding if a graph is bipartite."  The same linear-
sketching technology that answers connectivity answers this too, via the
classical **bipartite double cover** reduction:

    G is bipartite  ⟺  cc(DC(G)) = 2 · cc(G)

where ``DC(G)`` has vertices ``{v, v' : v ∈ V}`` and edges
``{u, v'}, {u', v}`` for every edge ``{u, v}`` of G.  (Each connected
component of G lifts to two components when — and only when — it is
bipartite; an odd cycle glues its lift into one.)

Each node ``v`` knows *its own* double-cover edges (they are determined by
``N(v)``), so it can sketch both the plain incidence vector (for ``cc(G)``)
and the double-cover incidence vectors of ``v`` and ``v'`` (for
``cc(DC(G))``) locally — three AGM sketch banks, still ``O(log³ n)`` bits,
one round, public coins.  The referee runs Borůvka twice and compares
component counts.

Error is one-sided in the *safe* direction for each sub-count (sketch
failures only leave components unmerged, i.e. over-count), so the derived
answer can err both ways but with small probability; accuracy is measured
in EXP-BIP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bits.writer import BitWriter
from repro.errors import DecodeError, SketchFailure
from repro.model.message import Message
from repro.model.protocol import DecisionProtocol
from repro.sketching.connectivity import (
    _UnionFind,
    _unzigzag,
    _zigzag,
    edge_index,
    edge_pair,
    incidence_updates,
)
from repro.sketching.l0sampler import L0Sampler, L0SamplerParams
from repro.registry import register

__all__ = ["SketchBipartitenessProtocol", "BipartitenessReport", "double_cover_components"]


@dataclass(frozen=True)
class BipartitenessReport:
    """Outcome of one bipartiteness round."""

    bipartite: bool
    n: int
    components_g: int
    components_double_cover: int
    bits_per_node: int


def _dc_vertex(v: int, primed: bool, n: int) -> int:
    """Double-cover vertex numbering: v -> v, v' -> v + n (IDs 1..2n)."""
    return v + n if primed else v


def double_cover_components(n: int, edges) -> int:
    """Reference count of DC(G) components (used by tests, not the protocol)."""
    uf = _UnionFind(2 * n)
    for u, v in edges:
        uf.union(u, v + n)
        uf.union(u + n, v)
    return len({uf.find(x) for x in range(1, 2 * n + 1)})


class SketchBipartitenessProtocol(DecisionProtocol):
    """One-round randomized bipartiteness via double-cover component counting."""

    def __init__(self, seed: int = 0, rounds: int | None = None) -> None:
        self.seed = seed
        self._rounds_override = rounds
        self.name = f"sketch-bipartiteness(seed={seed})"

    # ------------------------------------------------------------------ #
    # shared parameters: one bank over G, one bank over DC(G)
    # ------------------------------------------------------------------ #

    def rounds_for(self, n: int) -> int:
        if self._rounds_override is not None:
            return self._rounds_override
        return 2 * max(1, (2 * n - 1).bit_length()) + 2

    def _params(self, n: int, which: str, r: int) -> L0SamplerParams:
        m = max(1, (2 * n) * (2 * n - 1) // 2) if which == "dc" else max(1, n * (n - 1) // 2)
        return L0SamplerParams.derive(m, self.seed, n, r, 0 if which == "g" else 1)

    def _widths(self, n: int, which: str) -> tuple[int, int]:
        size = 2 * n if which == "dc" else n
        m = max(1, size * (size - 1) // 2)
        return (2 * size).bit_length(), (2 * size * m).bit_length()

    # ------------------------------------------------------------------ #
    # local phase
    # ------------------------------------------------------------------ #

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        if n < 2:
            return Message.empty()
        rounds = self.rounds_for(n)
        fields: list[tuple[int, int]] = []
        # bank 1: plain incidence sketches of i in G.  The update stream is
        # round-independent: build it once, batch it into every sampler.
        wg0, wg1 = self._widths(n, "g")
        g_updates = incidence_updates(n, i, neighborhood)
        for r in range(rounds):
            sampler = L0Sampler(self._params(n, "g", r))
            sampler.update_many(g_updates)
            for c0, c1, c2 in sampler.counters():
                fields.append((_zigzag(c0), wg0))
                fields.append((_zigzag(c1), wg1))
                fields.append((c2, 61))
        # bank 2: DC incidence sketches of BOTH lifts of i (i and i+n)
        wd0, wd1 = self._widths(n, "dc")
        for primed in (False, True):
            me = _dc_vertex(i, primed, n)
            dc_updates = []
            for w in neighborhood:
                other = _dc_vertex(w, not primed, n)  # edges cross the lift
                if me < other:
                    dc_updates.append((edge_index(2 * n, me, other), +1))
                else:
                    dc_updates.append((edge_index(2 * n, other, me), -1))
            for r in range(rounds):
                sampler = L0Sampler(self._params(n, "dc", r))
                sampler.update_many(dc_updates)
                for c0, c1, c2 in sampler.counters():
                    fields.append((_zigzag(c0), wd0))
                    fields.append((_zigzag(c1), wd1))
                    fields.append((c2, 61))
        writer = BitWriter()
        writer.write_many(fields)
        return Message.from_writer(writer)

    # ------------------------------------------------------------------ #
    # global phase
    # ------------------------------------------------------------------ #

    def global_(self, n: int, messages: list[Message]) -> bool:
        return self.decode_and_solve(n, messages).bipartite

    def decode_and_solve(self, n: int, messages: list[Message]) -> BipartitenessReport:
        if n <= 1:
            return BipartitenessReport(True, n, n, 2 * n, 0)
        rounds = self.rounds_for(n)
        wg0, wg1 = self._widths(n, "g")
        wd0, wd1 = self._widths(n, "dc")
        g_bank: list[list[L0Sampler]] = []     # per node, per round
        dc_bank: list[list[L0Sampler]] = []    # per DC vertex (1..2n), per round
        dc_bank = [[] for _ in range(2 * n)]
        bits = 0
        for v, msg in enumerate(messages, start=1):
            bits = max(bits, msg.bits)
            reader = msg.reader()
            try:
                per_round = []
                for r in range(rounds):
                    params = self._params(n, "g", r)
                    counters = [
                        (_unzigzag(reader.read_bits(wg0)), _unzigzag(reader.read_bits(wg1)), reader.read_bits(61))
                        for _ in range(params.levels)
                    ]
                    per_round.append(L0Sampler.from_counters(params, counters))
                g_bank.append(per_round)
                for primed in (False, True):
                    me = _dc_vertex(v, primed, n)
                    for r in range(rounds):
                        params = self._params(n, "dc", r)
                        counters = [
                            (_unzigzag(reader.read_bits(wd0)), _unzigzag(reader.read_bits(wd1)), reader.read_bits(61))
                            for _ in range(params.levels)
                        ]
                        dc_bank[me - 1].append(L0Sampler.from_counters(params, counters))
                reader.expect_exhausted()
            except Exception as exc:
                raise DecodeError(f"malformed bipartiteness sketch: {exc}") from exc

        cc_g = self._boruvka(n, rounds, lambda v, r: g_bank[v - 1][r], lambda idx: edge_pair(n, idx))
        cc_dc = self._boruvka(
            2 * n, rounds, lambda v, r: dc_bank[v - 1][r], lambda idx: edge_pair(2 * n, idx)
        )
        return BipartitenessReport(
            bipartite=cc_dc == 2 * cc_g,
            n=n,
            components_g=cc_g,
            components_double_cover=cc_dc,
            bits_per_node=bits,
        )

    @staticmethod
    def _boruvka(size: int, rounds: int, sampler_of, pair_of) -> int:
        uf = _UnionFind(size)
        components = size
        for r in range(rounds):
            if components == 1:
                break
            agg: dict[int, L0Sampler] = {}
            for v in range(1, size + 1):
                root = uf.find(v)
                s = sampler_of(v, r)
                agg[root] = agg[root].merged(s) if root in agg else s
            merged_any = False
            failures = 0
            for root, sampler in agg.items():
                try:
                    hit = sampler.sample()
                except SketchFailure:
                    failures += 1
                    continue
                if hit is None:
                    continue
                u, v = pair_of(hit[0])
                if uf.union(u, v):
                    components -= 1
                    merged_any = True
            if not merged_any and failures == 0:
                break
        return components



@register("sketch_bipartiteness", kind="protocol",
          capabilities=("decision", "sketching", "randomized"),
          summary="Bipartiteness via double-cover connectivity sketches "
                  "(randomized, one round).")
def _build_sketch_bipartiteness(n: int, sketch_seed: int = 0) -> "SketchBipartitenessProtocol":
    return SketchBipartitenessProtocol(seed=sketch_seed)
