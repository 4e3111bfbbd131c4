"""Adversarial collision search: the pigeonhole argument, demonstrated on real encoders.

Section II's intuition — "they would need to send their whole adjacency
list" — becomes concrete here.  A one-round protocol's fate is decided by
its *local* function alone: if two graphs produce the same message vector
but differ on the property, **no** global function can be correct.  The
searchers below hunt for such witness pairs:

* :func:`find_collision_exhaustive` — enumerate all labelled graphs on n
  vertices (guarded), bucket by message vector, report a bucket mixing
  property values;
* :func:`find_collision_sampled` — birthday-style random search over a
  generator, for sizes beyond enumeration.

Candidate local encoders (all frugal) are provided to be killed:
:class:`DegreeEncoder`, :class:`DegreeSumEncoder` (the forest encoder —
complete for degeneracy 1 yet useless for C4 on general graphs),
:class:`PowerSumEncoder` (Algorithm 3 with fixed k — complete for
degeneracy ≤ k, still collides beyond), and
:class:`HashedNeighborhoodEncoder` (a random-fingerprint strawman).

A found witness is *certified*: the pair of graphs, their property values,
and the shared message vector are returned so tests can re-verify.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.bits.sizing import id_width
from repro.bits.writer import BitWriter
from repro.graphs.counting import enumerate_labeled_graphs
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.protocols.powersum import compute_power_sums
from repro.sketching.field import derive_params

__all__ = [
    "LocalEncoder",
    "DegreeEncoder",
    "DegreeSumEncoder",
    "PowerSumEncoder",
    "HashedNeighborhoodEncoder",
    "CollisionWitness",
    "find_collision_exhaustive",
    "find_collision_sampled",
]


class LocalEncoder:
    """A bare local function ``(n, i, N) -> Message`` — no global function needed.

    The collision search quantifies over all possible global functions at
    once, so candidates only supply the encoding side.
    """

    name = "local-encoder"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        raise NotImplementedError

    def message_vector(self, g: LabeledGraph) -> tuple[Message, ...]:
        return tuple(self.local(g.n, i, g.neighbors(i)) for i in g.vertices())


class DegreeEncoder(LocalEncoder):
    """Send only the degree (``<= log(n+1)`` bits)."""

    name = "degree"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        w = BitWriter()
        w.write_bits(len(neighborhood), id_width(n))
        return Message.from_writer(w)


class DegreeSumEncoder(LocalEncoder):
    """Send (degree, sum of neighbour IDs) — the Section III.A forest message."""

    name = "degree+sum"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        w = BitWriter()
        wid = id_width(n)
        w.write_bits(len(neighborhood), wid)
        w.write_bits(sum(neighborhood), 2 * wid)
        return Message.from_writer(w)


class PowerSumEncoder(LocalEncoder):
    """Algorithm 3's message for a fixed k — frugal, complete only up to degeneracy k."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.name = f"powersum(k={k})"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        from repro.protocols.powersum import encode_powersum_message

        return encode_powersum_message(n, self.k, i, neighborhood)


class HashedNeighborhoodEncoder(LocalEncoder):
    """Send a ``bits``-bit deterministic fingerprint of (i, N) — a hashing strawman.

    Stands in for "maybe a clever randomized digest escapes the counting
    argument": it cannot — pigeonhole guarantees collisions once the family
    outnumbers the vectors, and the search finds them.
    """

    def __init__(self, bits: int = 16, salt: int = 0) -> None:
        self.bits = bits
        self.salt = salt
        self.name = f"hashed-neighborhood({bits}b)"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        mask = 0
        for v in neighborhood:
            mask |= 1 << v
        # splitmix64 chain over (salt, i, mask in 64-bit chunks): the same
        # value on every platform and interpreter, unlike builtin hash().
        # The chunk count depends only on n, so distinct masks never alias.
        chunks = (mask >> shift & 0xFFFFFFFFFFFFFFFF for shift in range(0, n + 1, 64))
        x = derive_params(self.salt, i, *chunks)
        w = BitWriter()
        w.write_bits(x & ((1 << self.bits) - 1), self.bits)
        return Message.from_writer(w)


@dataclass(frozen=True)
class CollisionWitness:
    """A certified kill: two graphs the encoder cannot separate, property values differing."""

    encoder: str
    g_with: LabeledGraph
    g_without: LabeledGraph
    property_name: str

    def verify(self, encoder: LocalEncoder, prop: Callable[[LabeledGraph], bool]) -> bool:
        """Re-check the certificate from scratch."""
        return (
            encoder.message_vector(self.g_with) == encoder.message_vector(self.g_without)
            and prop(self.g_with)
            and not prop(self.g_without)
        )


def find_collision_exhaustive(
    encoder: LocalEncoder,
    n: int,
    prop: Callable[[LabeledGraph], bool],
    property_name: str = "property",
) -> CollisionWitness | None:
    """Bucket every n-vertex labelled graph by message vector; report a mixed bucket.

    Complete for the given n: returns ``None`` only if the encoder genuinely
    separates the property on ALL pairs (possible when ``2^{bits·n}`` exceeds
    the graph count — the Lemma 1 regime).
    """
    buckets: dict[tuple[Message, ...], tuple[LabeledGraph | None, LabeledGraph | None]] = {}
    for g in enumerate_labeled_graphs(n):
        key = encoder.message_vector(g)
        holds = prop(g)
        with_g, without_g = buckets.get(key, (None, None))
        if holds and with_g is None:
            with_g = g.copy()
        elif not holds and without_g is None:
            without_g = g.copy()
        if with_g is not None and without_g is not None:
            return CollisionWitness(encoder.name, with_g, without_g, property_name)
        buckets[key] = (with_g, without_g)
    return None


def find_collision_sampled(
    encoder: LocalEncoder,
    generator: Iterator[LabeledGraph],
    prop: Callable[[LabeledGraph], bool],
    property_name: str = "property",
    max_samples: int = 100_000,
) -> CollisionWitness | None:
    """Birthday search over a graph stream for sizes beyond enumeration."""
    buckets: dict[tuple[Message, ...], tuple[LabeledGraph | None, LabeledGraph | None]] = {}
    for count, g in enumerate(generator):
        if count >= max_samples:
            return None
        key = encoder.message_vector(g)
        holds = prop(g)
        with_g, without_g = buckets.get(key, (None, None))
        if holds and with_g is None:
            with_g = g.copy()
        elif not holds and without_g is None:
            without_g = g.copy()
        if with_g is not None and without_g is not None:
            return CollisionWitness(encoder.name, with_g, without_g, property_name)
        buckets[key] = (with_g, without_g)
    return None
