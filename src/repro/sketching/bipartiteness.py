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
answer can err both ways.  The documented failure probability is **at
most 5%** per run, on bipartite and non-bipartite inputs alike: a wrong
answer comes from at most one public seed in twenty.
``tests/sketching/test_bipartiteness.py`` gates this on one input of each
kind with an exact one-sided 99% Clopper–Pearson upper bound over 160
seeds; accuracy over graph families is measured in EXP-BIP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.unionfind import UnionFind
from repro.model.message import Message
from repro.model.protocol import DecisionProtocol, require_one_message_per_vertex
from repro.sketching.agm import Bank, bank_offsets, boruvka, derive_bank, encode, incidence_updates
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
    uf = UnionFind(2 * n)
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

    def banks(self, n: int) -> tuple[Bank, Bank]:
        """The G bank over ``1..n`` (tag 0) and the DC bank over ``1..2n`` (tag 1)."""
        rounds = self.rounds_for(n)
        return derive_bank(n, self.seed, n, rounds, 0), derive_bank(2 * n, self.seed, n, rounds, 1)

    # ------------------------------------------------------------------ #
    # local phase
    # ------------------------------------------------------------------ #

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        if n < 2:
            return Message.empty()
        g_bank, dc_bank = self.banks(n)
        # bank 1: i's incidence vector in G; banks 2 and 3: the incidence
        # vectors of its lifts i and i+n in DC(G), whose edges cross the lift
        streams = [(g_bank, incidence_updates(n, i, neighborhood))]
        for primed in (False, True):
            lifted = [_dc_vertex(w, not primed, n) for w in neighborhood]
            streams.append((dc_bank, incidence_updates(2 * n, _dc_vertex(i, primed, n), lifted)))
        return encode(streams)

    # ------------------------------------------------------------------ #
    # global phase
    # ------------------------------------------------------------------ #

    def global_(self, n: int, messages: list[Message]) -> bool:
        return self.decode_and_solve(n, messages).bipartite

    def decode_and_solve(self, n: int, messages: list[Message]) -> BipartitenessReport:
        require_one_message_per_vertex(n, messages)
        if n <= 1:
            return BipartitenessReport(True, n, n, 2 * n, 0)
        g_bank, dc_bank = self.banks(n)
        _, lift, primed_lift = bank_offsets(messages, [g_bank, dc_bank, dc_bank])
        g_forest, _, _ = boruvka(g_bank, [(msg, 0) for msg in messages])
        dc_forest, _, _ = boruvka(
            dc_bank, [(msg, lift) for msg in messages] + [(msg, primed_lift) for msg in messages]
        )
        cc_g = n - len(g_forest)
        cc_dc = 2 * n - len(dc_forest)
        return BipartitenessReport(
            bipartite=cc_dc == 2 * cc_g,
            n=n,
            components_g=cc_g,
            components_double_cover=cc_dc,
            bits_per_node=max((msg.bits for msg in messages), default=0),
        )


@register("sketch_bipartiteness", kind="protocol",
          capabilities=("decision", "sketching", "randomized"),
          summary="Bipartiteness via double-cover connectivity sketches "
                  "(randomized, one round).")
def _build_sketch_bipartiteness(n: int, sketch_seed: int = 0) -> "SketchBipartitenessProtocol":
    return SketchBipartitenessProtocol(seed=sketch_seed)
