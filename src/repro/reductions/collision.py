"""Adversarial collision search: the pigeonhole argument, demonstrated on real encoders.

Section II's intuition — "they would need to send their whole adjacency
list" — becomes concrete here.  A one-round protocol's fate is decided by
its *local* function alone: if two graphs produce the same message vector
but differ on the property, **no** global function can be correct.  The
searchers below hunt for such witness pairs:

* :func:`find_collision_sampled` — bucket a stream of graphs by message
  vector and report the first bucket mixing property values
  (birthday-style over a random generator, for sizes beyond enumeration);
* :func:`find_collision_exhaustive` — the same search over every labelled
  graph on n vertices.

The candidates are the protocols' own local functions: any object with
``local(n, i, N)`` and ``name`` will do, since the search quantifies over
all global functions at once.  The experiments kill
:class:`~repro.protocols.trivial.DegreeProtocol`, probe
:class:`~repro.protocols.forest.ForestReconstructionProtocol` (complete for
degeneracy 1, square-rigid at enumerable sizes), and use
:class:`HashedNeighborhoodEncoder` (a random-fingerprint strawman).

A found witness is *certified*: the pair of graphs, their property values,
and the shared message vector are returned so tests can re-verify.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import islice

from repro.bits.writer import BitWriter
from repro.graphs.counting import enumerate_labeled_graphs
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.protocol import OneRoundProtocol
from repro.sketching.field import derive_params

__all__ = [
    "HashedNeighborhoodEncoder",
    "CollisionWitness",
    "find_collision_exhaustive",
    "find_collision_sampled",
]


class HashedNeighborhoodEncoder:
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


#: What the search runs: a protocol, or a bare local function with a name.
Encoder = OneRoundProtocol | HashedNeighborhoodEncoder


def _message_vector(encoder: Encoder, g: LabeledGraph) -> tuple[Message, ...]:
    return tuple(encoder.local(g.n, i, g.neighbors(i)) for i in g.vertices())


@dataclass(frozen=True)
class CollisionWitness:
    """A certified kill: two graphs the encoder cannot separate, property values differing."""

    encoder: str
    g_with: LabeledGraph
    g_without: LabeledGraph
    property_name: str

    def verify(self, encoder: Encoder, prop: Callable[[LabeledGraph], bool]) -> bool:
        """Re-check the certificate from scratch."""
        return (
            _message_vector(encoder, self.g_with) == _message_vector(encoder, self.g_without)
            and prop(self.g_with)
            and not prop(self.g_without)
        )


def find_collision_exhaustive(
    encoder: Encoder,
    n: int,
    prop: Callable[[LabeledGraph], bool],
    property_name: str = "property",
) -> CollisionWitness | None:
    """Bucket every n-vertex labelled graph by message vector; report a mixed bucket.

    Complete for the given n: returns ``None`` only if the encoder genuinely
    separates the property on ALL pairs (possible when ``2^{bits·n}`` exceeds
    the graph count — the Lemma 1 regime).
    """
    return find_collision_sampled(
        encoder, enumerate_labeled_graphs(n), prop, property_name, max_samples=None
    )


def find_collision_sampled(
    encoder: Encoder,
    generator: Iterable[LabeledGraph],
    prop: Callable[[LabeledGraph], bool],
    property_name: str = "property",
    max_samples: int | None = 100_000,
) -> CollisionWitness | None:
    """Birthday search over the first ``max_samples`` graphs of a stream (all if None)."""
    buckets: dict[tuple[Message, ...], tuple[LabeledGraph | None, LabeledGraph | None]] = {}
    for g in islice(generator, max_samples):
        key = _message_vector(encoder, g)
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
