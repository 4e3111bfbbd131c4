"""Frugality auditing: turning "O(log n)" into a measured constant.

A protocol is frugal when ``max_G |Γ^l(G)| = O(log n)``.  Experimentally we
check the concrete form: there is a constant ``c`` with
``max bits <= c · ceil(log2 n)`` across the audited inputs.  The auditor
measures message lengths over a corpus of graphs, reports the worst case per
``n``, and fits the smallest admissible ``c`` — which is what Lemma 2's
``O(k² log n)`` and the reductions' "messages three times as big" become in
code.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import FrugalityViolation
from repro.graphs.labeled import LabeledGraph
from repro.model.protocol import OneRoundProtocol

__all__ = ["log2_ceil", "FrugalityReport", "FrugalityAuditor"]


def log2_ceil(n: int) -> int:
    """``ceil(log2 n)`` for n >= 1, with ``log2_ceil(1) == 1``.

    The paper's unit of message size.  We floor it at 1 bit so budgets stay
    positive on the trivial single-vertex network.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return max(1, (n - 1).bit_length())


@dataclass(frozen=True)
class FrugalityReport:
    """Audit outcome for one protocol over a corpus of graphs."""

    protocol: str
    #: worst message length seen for each n: {n: bits}
    worst_bits: dict[int, int]
    #: smallest c such that bits <= c * ceil(log2 n) over the corpus
    fitted_constant: float
    #: total graphs audited
    graphs_audited: int

    def rows(self) -> list[tuple[int, int, int, float]]:
        """Table rows ``(n, worst_bits, log2_ceil(n), ratio)`` sorted by n."""
        return [
            (n, bits, log2_ceil(n), bits / log2_ceil(n))
            for n, bits in sorted(self.worst_bits.items())
        ]


class FrugalityAuditor:
    """Measures per-message bit usage of a protocol across graphs."""

    def __init__(self, *, budget_constant: float | None = None) -> None:
        #: when set, :meth:`audit` raises on any message above
        #: ``budget_constant * ceil(log2 n)`` bits.
        self.budget_constant = budget_constant

    def audit(self, protocol: OneRoundProtocol, graphs: Iterable[LabeledGraph]) -> FrugalityReport:
        """Run the local phase on every graph and record worst-case sizes."""
        worst: dict[int, int] = {}
        count = 0
        for g in graphs:
            count += 1
            unit = log2_ceil(g.n) if g.n else 1
            for i in g.vertices():
                bits = protocol.local(g.n, i, g.neighbors(i)).bits
                if self.budget_constant is not None and bits > self.budget_constant * unit:
                    raise FrugalityViolation(
                        f"{protocol.name}: node {i} on n={g.n} sent {bits} bits "
                        f"> {self.budget_constant} * {unit}",
                        vertex=i,
                        bits=bits,
                        budget=int(self.budget_constant * unit),
                    )
                if bits > worst.get(g.n, -1):
                    worst[g.n] = bits
        fitted = max(
            (bits / log2_ceil(n) for n, bits in worst.items()),
            default=0.0,
        )
        return FrugalityReport(
            protocol=protocol.name,
            worst_bits=worst,
            fitted_constant=fitted,
            graphs_audited=count,
        )
