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
protocol may call a connected graph disconnected (with small probability),
never the reverse once the fingerprint holds (boundary edges reported are
genuine whp).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bits.writer import BitWriter
from repro.errors import DecodeError, SketchFailure
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.protocol import DecisionProtocol
from repro.sketching.l0sampler import L0Sampler, L0SamplerParams
from repro.registry import register

__all__ = [
    "AGMConnectivityProtocol",
    "SketchReport",
    "sketch_spanning_forest",
    "edge_index",
    "edge_pair",
    "incidence_updates",
]


def edge_index(n: int, u: int, v: int) -> int:
    """Rank of edge ``{u, v}`` (u < v) in lexicographic order over C(n,2) slots."""
    if not 1 <= u < v <= n:
        raise ValueError(f"need 1 <= u < v <= n, got ({u}, {v})")
    # edges (1,2)..(1,n), (2,3)..(2,n), ...: (u-1)n - u(u-1)/2 edges precede row u
    return (u - 1) * n - u * (u - 1) // 2 + v - u - 1


def incidence_updates(
    n: int, i: int, neighborhood: frozenset[int]
) -> list[tuple[int, int]]:
    """Node ``i``'s signed edge-incidence stream: ``(edge_index, ±1)`` pairs."""
    return [
        (edge_index(n, i, w), +1) if i < w else (edge_index(n, w, i), -1)
        for w in neighborhood
    ]


def edge_pair(n: int, index: int) -> tuple[int, int]:
    """Inverse of :func:`edge_index`."""
    if index < 0 or index >= n * (n - 1) // 2:
        raise ValueError(f"edge index {index} out of range for n={n}")
    u = 1
    while (u - 1) * n - u * (u - 1) // 2 + (n - u) <= index:
        u += 1
    v = index - ((u - 1) * n - u * (u - 1) // 2) + u + 1
    return u, v


@dataclass(frozen=True)
class SketchReport:
    """Outcome of one sketch-connectivity run."""

    connected: bool
    n: int
    rounds_used: int
    forest_edges: tuple[tuple[int, int], ...]
    sampler_failures: int
    bits_per_node: int


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n + 1))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


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

    def params_for(self, n: int, r: int) -> L0SamplerParams:
        m = max(1, n * (n - 1) // 2)
        return L0SamplerParams.derive(m, self.seed, n, r)

    def _widths(self, n: int) -> tuple[int, int]:
        """Fixed widths for (zigzag c0, zigzag c1) in node messages."""
        m = max(1, n * (n - 1) // 2)
        w0 = (2 * n).bit_length()
        w1 = (2 * n * m).bit_length()
        return w0, w1

    # ------------------------------------------------------------------ #
    # local phase
    # ------------------------------------------------------------------ #

    def _node_samplers(self, n: int, i: int, neighborhood: frozenset[int]) -> list[L0Sampler]:
        # The incidence updates are identical for every round's sampler, so
        # build the (index, delta) stream once and feed each round through
        # update_many.
        updates = incidence_updates(n, i, neighborhood)
        samplers = []
        for r in range(self.rounds_for(n)):
            sampler = L0Sampler(self.params_for(n, r))
            sampler.update_many(updates)
            samplers.append(sampler)
        return samplers

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        if n < 2:
            return Message.empty()
        w0, w1 = self._widths(n)
        # Collect every fixed-width field, then pack the whole message in
        # one pass (bit-identical to per-field writes).
        fields: list[tuple[int, int]] = []
        for sampler in self._node_samplers(n, i, neighborhood):
            for c0, c1, c2 in sampler.counters():
                fields.append((_zigzag(c0), w0))
                fields.append((_zigzag(c1), w1))
                fields.append((c2, 61))
        writer = BitWriter()
        writer.write_many(fields)
        return Message.from_writer(writer)

    # ------------------------------------------------------------------ #
    # global phase: Borůvka on sketches
    # ------------------------------------------------------------------ #

    def global_(self, n: int, messages: list[Message]) -> bool:
        return self.decode_and_solve(n, messages).connected

    def decode_and_solve(self, n: int, messages: list[Message]) -> SketchReport:
        """Full global phase, returning the detailed report."""
        if n <= 1:
            return SketchReport(True, n, 0, (), 0, 0)
        rounds = self.rounds_for(n)
        w0, w1 = self._widths(n)
        per_node: list[list[L0Sampler]] = []
        bits = 0
        for msg in messages:
            bits = max(bits, msg.bits)
            reader = msg.reader()
            samplers = []
            try:
                for r in range(rounds):
                    params = self.params_for(n, r)
                    counters = []
                    for _ in range(params.levels):
                        c0 = _unzigzag(reader.read_bits(w0))
                        c1 = _unzigzag(reader.read_bits(w1))
                        c2 = reader.read_bits(61)
                        counters.append((c0, c1, c2))
                    samplers.append(L0Sampler.from_counters(params, counters))
                reader.expect_exhausted()
            except Exception as exc:
                raise DecodeError(f"malformed sketch message: {exc}") from exc
            per_node.append(samplers)

        uf = _UnionFind(n)
        components = n
        forest: list[tuple[int, int]] = []
        failures = 0
        rounds_used = 0
        for r in range(rounds):
            if components == 1:
                break
            rounds_used = r + 1
            # aggregate round-r samplers by component root
            agg: dict[int, L0Sampler] = {}
            for v in range(1, n + 1):
                root = uf.find(v)
                if root in agg:
                    agg[root] = agg[root].merged(per_node[v - 1][r])
                else:
                    agg[root] = per_node[v - 1][r]
            merged_any = False
            round_failures = 0
            for root, sampler in agg.items():
                try:
                    hit = sampler.sample()
                except SketchFailure:
                    failures += 1
                    round_failures += 1
                    continue
                if hit is None:
                    continue  # genuinely isolated component
                u, v = edge_pair(n, hit[0])
                if uf.union(u, v):
                    forest.append((u, v) if u < v else (v, u))
                    components -= 1
                    merged_any = True
            if not merged_any and round_failures == 0:
                break  # every component is (whp) isolated: the partition is final
        return SketchReport(
            connected=components == 1,
            n=n,
            rounds_used=rounds_used,
            forest_edges=tuple(sorted(set(forest))),
            sampler_failures=failures,
            bits_per_node=bits,
        )


def sketch_spanning_forest(g: LabeledGraph, seed: int = 0) -> SketchReport:
    """Convenience: run the full protocol on ``g`` and return the report."""
    protocol = AGMConnectivityProtocol(seed=seed)
    return protocol.decode_and_solve(g.n, protocol.message_vector(g))


def _zigzag(x: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    return (x << 1) ^ (x >> 63) if x >= 0 else ((-x) << 1) - 1


def _unzigzag(u: int) -> int:
    """Inverse of :func:`_zigzag`."""
    return (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1)



@register("agm_connectivity", kind="protocol",
          capabilities=("decision", "sketching", "randomized"),
          summary="AGM linear-sketch connectivity: one round, O(log^3 n) "
                  "bits/node, one-sided error.")
def _build_agm_connectivity(n: int, sketch_seed: int = 0) -> "AGMConnectivityProtocol":
    return AGMConnectivityProtocol(seed=sketch_seed)
