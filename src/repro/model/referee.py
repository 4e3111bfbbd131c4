"""The referee simulator.

The interconnection network ``G̃`` is the graph ``G`` plus a universal node
``v_0`` (the referee).  In one round every node sends its message; the paper
notes the network may be asynchronous because the referee simply waits for
all ``n`` messages.  :class:`Referee` models exactly that: it gathers the
local-phase messages (optionally delivering them in an adversarial order and
re-indexing by ID, which must not change the outcome), then runs the global
phase, timing both phases and recording exact bit counts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import FrugalityViolation
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.protocol import OneRoundProtocol
from repro.obs.trace import current_tracer

if TYPE_CHECKING:  # deferred: repro.engine imports this module
    from repro.engine.faults import FaultCounters, FaultInjector, FaultSpec

__all__ = ["Referee", "RunReport", "monotonic_clock"]

#: The one clock behind every timing field the library records
#: (:class:`RunReport` phase times, engine wall-clock fields).  Monotonic
#: by construction — ``time.perf_counter`` never goes backwards under NTP
#: slews or DST, unlike ``time.time`` — and threaded through
#: :mod:`repro.engine.scenario` / :mod:`repro.engine.campaign` so every
#: ``*_seconds`` in a record is measured on the same timebase.
monotonic_clock = time.perf_counter


@dataclass(frozen=True)
class RunReport:
    """Everything observable about one protocol round on one graph."""

    protocol: str
    n: int
    output: Any
    max_message_bits: int
    total_message_bits: int
    local_seconds: float
    global_seconds: float
    #: Time between the phases — fault injection and delivery shuffling
    #: (``t1..t2`` in :meth:`Referee.run`); 0 for a plain round.
    referee_seconds: float = 0.0
    per_vertex_bits: tuple[int, ...] = field(repr=False, default=())
    #: Transit-fault event counts; ``None`` unless fault injection was on.
    fault_counters: "FaultCounters | None" = None


class Referee:
    """Runs one-round protocols on graphs and reports resource usage.

    Parameters
    ----------
    budget_bits:
        Optional hard per-message cap; when set, any longer message raises
        :class:`FrugalityViolation` *during* the round, modelling a link
        that physically cannot carry more.
    shuffle_delivery:
        When set, deliver messages to the global function after a random
        permutation + re-sort by ID (using ``shuffle_seed``).  Definition 1
        indexes messages by ID, so this is a no-op by construction — the
        flag exists so tests can assert the simulator doesn't smuggle
        ordering information.
    faults:
        Optional :class:`~repro.engine.faults.FaultSpec` (or a prebuilt
        injector) modelling a lossy link between the local and global
        phases.  Frugality budgets audit the *sent* message; bit counts in
        the report measure what the referee *received*.
    fault_seed:
        Per-run component of the fault stream (combined with the spec's
        own seed), so campaigns get independent but reproducible faults.
    """

    def __init__(
        self,
        *,
        budget_bits: int | None = None,
        shuffle_delivery: bool = False,
        shuffle_seed: int | None = None,
        faults: "FaultSpec | FaultInjector | None" = None,
        fault_seed: int = 0,
    ) -> None:
        self.budget_bits = budget_bits
        self.shuffle_delivery = shuffle_delivery
        self.shuffle_seed = shuffle_seed
        self.faults = faults
        self.fault_seed = fault_seed

    def _check_budget(self, protocol: OneRoundProtocol, i: int, msg: Message) -> None:
        if self.budget_bits is not None and msg.bits > self.budget_bits:
            raise FrugalityViolation(
                f"{protocol.name}: node {i} sent {msg.bits} bits, budget {self.budget_bits}",
                vertex=i,
                bits=msg.bits,
                budget=self.budget_bits,
            )

    def _make_injector(self) -> "FaultInjector | None":
        if self.faults is None:
            return None
        from repro.engine.faults import FaultSpec

        if isinstance(self.faults, FaultSpec):
            if self.faults.is_noop:
                return None
            return self.faults.injector(self.fault_seed)
        return self.faults

    def run(self, protocol: OneRoundProtocol, g: LabeledGraph) -> RunReport:
        """Execute one full round of ``protocol`` on ``g``."""
        t0 = monotonic_clock()
        tagged: list[tuple[int, Message]] = []
        for i in g.vertices():
            msg = protocol.local(g.n, i, g.neighbors(i))
            self._check_budget(protocol, i, msg)
            tagged.append((i, msg))
        t1 = monotonic_clock()

        fault_counters = None
        injector = self._make_injector()
        if injector is not None:
            tagged, fault_counters = injector.apply(tagged)

        if self.shuffle_delivery:
            rng = random.Random(self.shuffle_seed)
            rng.shuffle(tagged)  # asynchronous arrival...
            tagged.sort(key=lambda pair: pair[0])  # ...re-indexed by ID

        messages = [m for _, m in tagged]
        t2 = monotonic_clock()
        output = protocol.global_(g.n, messages)
        t3 = monotonic_clock()

        bits = tuple(m.bits for m in messages)
        report = RunReport(
            protocol=protocol.name,
            n=g.n,
            output=output,
            max_message_bits=max(bits, default=0),
            total_message_bits=sum(bits),
            local_seconds=t1 - t0,
            global_seconds=t3 - t2,
            referee_seconds=t2 - t1,
            per_vertex_bits=bits,
            fault_counters=fault_counters,
        )

        # Retro phase spans on the ambient tracer (a no-op unless the
        # caller installed one via ``use_tracer``; campaigns emit these
        # from the landed record instead — see DESIGN.md §8).  Durations
        # are the *measured* ones, copied bit-for-bit, so span totals
        # reconcile exactly with the report's ``*_seconds`` fields.
        tracer = current_tracer()
        if tracer.enabled:
            tracer.emit_span("local", t0, report.local_seconds,
                             protocol=protocol.name, n=g.n)
            tracer.emit_span("referee", t1, report.referee_seconds,
                             protocol=protocol.name, n=g.n)
            tracer.emit_span("global", t2, report.global_seconds,
                             protocol=protocol.name, n=g.n)
        return report
