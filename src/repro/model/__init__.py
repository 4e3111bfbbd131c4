"""The referee model — Definition 1 of the paper, executable.

A *one-round protocol* ``Γ`` is a pair of function families: a **local
function** ``Γ^l_n(i, N)`` mapping a vertex ID and its neighbourhood to a
message, and a **global function** ``Γ^g_n(m_1, ..., m_n)`` mapping the
vector of all n messages to the output.  ``Γ`` is **frugal** when the
longest message over all n-vertex graphs is ``O(log n)`` bits.

This package provides:

* :class:`~repro.model.message.Message` — an immutable bit string with an
  exact size, the only thing a node may hand the referee;
* :class:`~repro.model.protocol.OneRoundProtocol` — the abstract pair
  ``(local, global_)``; crucially ``local`` is a *pure function of
  (n, i, N)*, evaluable on hypothetical inputs, which is exactly the hook
  the Section II reductions exploit;
* :class:`~repro.model.referee.Referee` — the simulator: runs the local
  phase at every vertex, delivers messages (optionally in adversarial
  order, re-indexed by ID as the model allows), runs the global phase, and
  reports exact bit counts;
* :class:`~repro.model.frugality.FrugalityAuditor` — measures messages
  against a concrete ``c · ceil(log2 n)`` budget and fits the constant;
* :class:`~repro.model.multiround.MultiRoundProtocol` — the conclusion's
  "more rounds" extension: referee and nodes alternate, every per-round
  message still frugal.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.model.message", ("Message",)),
    ("repro.model.protocol", (
        "OneRoundProtocol", "DecisionProtocol", "ReconstructionProtocol")),
    ("repro.model.referee", ("Referee", "monotonic_clock", "RunReport")),
    ("repro.model.frugality", ("FrugalityAuditor", "FrugalityReport", "log2_ceil")),
    ("repro.model.multiround", (
        "MultiRoundProtocol", "MultiRoundReferee", "MultiRoundReport")),
))
