"""Section II, executable: the reduction technique behind Theorems 1–3.

The paper's impossibility proofs all follow one recipe: *if* a one-round
protocol ``Γ`` could decide property P, *then* the referee could simulate
``Γ`` on a family of gadget graphs ``G'_{s,t}`` (one per vertex pair) whose
P-status encodes "is {s,t} an edge of G?" — reconstructing G outright.  A
family too big for Lemma 1's ``2^{O(n log n)}`` capacity then kills Γ.

The reductions are concrete algorithms (the paper prints their pseudocode),
so we implement them as protocol *transformers*: feed in any detector
protocol object, get back a reconstructor protocol object.

* :mod:`~repro.reductions.gadgets` — the ``G'_{s,t}`` constructions
  (Figures 1 and 2, plus Theorem 1's pendant gadget);
* :mod:`~repro.reductions.square` — Theorem 1 / Algorithm 1: square
  detector ⇒ reconstructor for square-free graphs;
* :mod:`~repro.reductions.diameter` — Theorem 2 / Algorithm 2: diameter-≤3
  detector ⇒ reconstructor for *all* graphs;
* :mod:`~repro.reductions.triangle` — Theorem 3: triangle detector ⇒
  reconstructor for triangle-free (in particular bipartite) graphs;
* :mod:`~repro.reductions.oracles` — ground-truth detectors (non-frugal,
  ``n`` bits/node) to validate the reductions end-to-end;
* :mod:`~repro.reductions.collision` — the adversarial search: for any
  *candidate frugal* local function, hunt for two graphs with identical
  message vectors but different property values — a certificate that **no**
  global function can make that local function work.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.reductions.gadgets", ("square_gadget", "diameter_gadget", "triangle_gadget")),
    ("repro.reductions.square", ("SquareReduction",)),
    ("repro.reductions.diameter", ("DiameterReduction",)),
    ("repro.reductions.triangle", ("TriangleReduction",)),
    ("repro.reductions.oracles", (
        "OracleSquareDetector", "OracleTriangleDetector", "OracleDiameterDetector")),
    ("repro.reductions.coalition", (
        "CoalitionEncoder", "HashedCoalitionEncoder", "EdgeStatsCoalitionEncoder",
        "CoalitionCollisionWitness", "find_coalition_collision", "coalition_parts",
        "coalition_capacity_bits")),
    ("repro.reductions.collision", (
        "CollisionWitness", "find_collision_exhaustive", "find_collision_sampled",
        "HashedNeighborhoodEncoder")),
))
