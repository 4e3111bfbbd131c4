"""Degenerate baseline protocols.

These anchor the experiments:

* :class:`EmptyProtocol` / :class:`IdEchoProtocol` / :class:`DegreeProtocol`
  send almost nothing — frugal but (provably) unable to decide the paper's
  properties; the adversarial collision search runs :class:`DegreeProtocol`
  as its easy kill.
* :class:`FullAdjacencyProtocol` sends everything — the *non-frugal* oracle
  whose messages are ``n`` bits; plugged into the Section II reductions it
  validates them end-to-end (a correct detector really does yield a correct
  reconstructor), and its audit shows exactly how non-frugal "just send your
  neighbourhood" is on general graphs.
"""

from __future__ import annotations

from typing import Any

from repro.bits.sizing import id_width
from repro.bits.writer import BitWriter
from repro.errors import DecodeError
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.protocol import (
    OneRoundProtocol,
    ReconstructionProtocol,
    require_one_message_per_vertex,
)
from repro.registry import register

__all__ = ["EmptyProtocol", "IdEchoProtocol", "DegreeProtocol", "FullAdjacencyProtocol"]


def _read_one_field(n: int, messages: list[Message]) -> list[int]:
    """The one ``id_width(n)``-bit field of each of the n messages, in order."""
    require_one_message_per_vertex(n, messages)
    if n == 0:
        return []
    width = id_width(n)
    for i, msg in enumerate(messages, start=1):
        if msg.bits != width:
            raise DecodeError(f"node {i} sent {msg.bits} bits, expected {width}")
    return [msg.acc for msg in messages]


class EmptyProtocol(OneRoundProtocol):
    """Every node sends the empty message; the referee outputs ``None``."""

    name = "empty"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        return Message.empty()

    def global_(self, n: int, messages: list[Message]) -> Any:
        return None


class IdEchoProtocol(OneRoundProtocol):
    """Every node sends its own ID; the referee returns the list (sanity protocol)."""

    name = "id-echo"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        w = BitWriter()
        w.write_bits(i, id_width(n))
        return Message.from_writer(w)

    def global_(self, n: int, messages: list[Message]) -> list[int]:
        return _read_one_field(n, messages)


class DegreeProtocol(OneRoundProtocol):
    """Every node sends its degree; the referee returns the degree sequence.

    Frugal (``<= log2(n+1)`` bits) but far too weak to decide subgraph
    containment — the collision experiment exhibits concrete witness pairs.
    """

    name = "degree"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        w = BitWriter()
        w.write_bits(len(neighborhood), id_width(n))
        return Message.from_writer(w)

    def global_(self, n: int, messages: list[Message]) -> list[int]:
        return _read_one_field(n, messages)


class FullAdjacencyProtocol(ReconstructionProtocol):
    """Every node sends its full neighbourhood bitmap (n bits) — the non-frugal oracle.

    The referee reconstructs the graph exactly, taking the union of claimed
    edges (each edge is reported by both endpoints; the union keeps the
    protocol total on arbitrary — even inconsistent — message vectors,
    which the reductions rely on).  A vector of other than ``n`` messages,
    or a message that is not exactly ``n`` bits long, is a
    :class:`~repro.errors.DecodeError`.
    """

    name = "full-adjacency"

    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        w = BitWriter()
        mask = 0
        for v in neighborhood:
            mask |= 1 << (v - 1)
        w.write_bits(mask, n)
        return Message.from_writer(w)

    def global_(self, n: int, messages: list[Message]) -> LabeledGraph:
        require_one_message_per_vertex(n, messages)
        g = LabeledGraph(n)
        for i, msg in enumerate(messages, start=1):
            if msg.bits != n:
                raise DecodeError(
                    f"malformed full-adjacency message: node {i} sent {msg.bits} bits, expected {n}"
                )
            mask = msg.acc
            for v in range(1, n + 1):
                if mask >> (v - 1) & 1 and v != i:
                    g.add_edge(i, v)
        return g



@register("full_adjacency", kind="protocol",
          capabilities=("reconstruction", "deterministic", "baseline"),
          summary="Non-frugal baseline: every node sends its full adjacency row.")
def _build_full_adjacency(n: int) -> "FullAdjacencyProtocol":
    return FullAdjacencyProtocol()
