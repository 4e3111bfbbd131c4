"""The one-round protocol abstraction (Definition 1).

A protocol is a pair ``(Γ^l_n, Γ^g_n)``:

* ``local(n, i, neighborhood)`` — the message node ``i`` sends when its
  neighbourhood is ``neighborhood`` in an ``n``-vertex graph.  The paper is
  explicit that this "can be evaluated in any pair (i, N)": the function is
  defined on *hypothetical* inputs too, not just ones arising from some
  actual graph.  The Section II reductions depend on this — the referee
  simulates Γ's local function on gadget vertices it invented.
* ``global_(n, messages)`` — the referee's output given the n-vector of
  messages, indexed by vertex ID (``messages[i-1]`` is from node ``i``).

Subclasses implement those two; :meth:`OneRoundProtocol.run` wires them
through an actual graph.  The model deliberately puts no complexity or
uniformity constraints on either function ("in agreement with the usual
setting of communication complexity") — oracle protocols used to validate
reductions may do exponential work in ``global_``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.errors import DecodeError, ProtocolError
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message

__all__ = [
    "OneRoundProtocol",
    "DecisionProtocol",
    "ReconstructionProtocol",
    "require_one_message_per_vertex",
]


def require_one_message_per_vertex(n: int, messages: list[Message]) -> None:
    """Raise :class:`DecodeError` unless ``messages`` holds exactly ``n`` messages.

    A referee decodes the n-vector of Definition 1; a vector one short or
    one long is malformed input, not a graph to guess at.
    """
    if len(messages) != n:
        raise DecodeError(f"{len(messages)} messages for a graph on {n} vertices")


class OneRoundProtocol(ABC):
    """Abstract one-round protocol ``Γ = (Γ^l_n, Γ^g_n)``."""

    #: Human-readable protocol name for reports.
    name: str = "protocol"

    @abstractmethod
    def local(self, n: int, i: int, neighborhood: frozenset[int]) -> Message:
        """``Γ^l_n(i, N)`` — the message node ``i`` sends to the referee.

        Must be a pure function of ``(n, i, neighborhood)``; it may be
        called with neighbourhoods that do not occur in any graph under
        simulation (the reductions do exactly that).
        """

    @abstractmethod
    def global_(self, n: int, messages: list[Message]) -> Any:
        """``Γ^g_n(m_1, ..., m_n)`` — the referee's output."""

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #

    def message_vector(self, g: LabeledGraph) -> list[Message]:
        """``Γ^l(G)`` — the messages of all n nodes, indexed by ID."""
        return [self.local(g.n, i, g.neighbors(i)) for i in g.vertices()]

    def run(self, g: LabeledGraph) -> Any:
        """``Γ(G) = Γ^g_n(Γ^l(G))`` — one full round on ``g``."""
        return self.global_(g.n, self.message_vector(g))

    def max_message_bits(self, g: LabeledGraph) -> int:
        """``|Γ^l(G)|`` — the longest message sent on ``g`` (paper's notation)."""
        return max((m.bits for m in self.message_vector(g)), default=0)


class DecisionProtocol(OneRoundProtocol):
    """A protocol whose global function outputs a boolean (property decision)."""

    def decide(self, g: LabeledGraph) -> bool:
        """Run and coerce the output to bool, checking the contract."""
        out = self.run(g)
        if not isinstance(out, bool):
            raise ProtocolError(
                f"{self.name}: decision protocol returned {type(out).__name__}, expected bool"
            )
        return out


class ReconstructionProtocol(OneRoundProtocol):
    """A protocol whose global function outputs the reconstructed graph.

    The paper phrases reconstruction as "output the adjacency matrix"; we
    return a :class:`LabeledGraph`, which carries the same information.
    """

    def reconstruct(self, g: LabeledGraph) -> LabeledGraph:
        """Run and coerce the output to a LabeledGraph, checking the contract."""
        out = self.run(g)
        if not isinstance(out, LabeledGraph):
            raise ProtocolError(
                f"{self.name}: reconstruction protocol returned {type(out).__name__}, "
                "expected LabeledGraph"
            )
        return out
