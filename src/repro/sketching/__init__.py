"""Linear graph sketching — the answer history gave to the paper's open question.

The paper's main open question (Conclusion): *is there a one-round frugal
protocol deciding connectivity?*  The authors "rather tend to believe there
is no such protocol" — and indeed no deterministic ``O(log n)``-bit protocol
exists — but with **public randomness** the Ahn–Guha–McGregor (SODA 2012)
linear-sketching technique decides connectivity in exactly this model with
``O(log³ n)`` bits per node, a single round, and one-sided error.  This
package implements that machinery from scratch:

* :mod:`~repro.sketching.field` — arithmetic modulo the Mersenne prime
  ``2^61 - 1`` for fingerprints;
* :mod:`~repro.sketching.onesparse` — exact recovery of one-sparse signed
  vectors from three counters ``(Σa_e, Σe·a_e, Σa_e z^e)``;
* :mod:`~repro.sketching.l0sampler` — sample a uniform-ish nonzero
  coordinate by subsampling at geometric rates (with the one-sparse
  sketch, the reference twin of the flat-counter codec in ``agm``);
* :mod:`~repro.sketching.agm` — the wire format and Borůvka round every
  sketch protocol shares: one cached bank builder for the public
  parameters, flat counter lists instead of sketch objects,
  fixed-width counter fields, one length check, rounds read only when
  Borůvka reaches them;
* :mod:`~repro.sketching.connectivity` — the AGM protocol: each node
  sketches its signed edge-incidence vector; summing a component's sketches
  cancels internal edges, so the referee runs Borůvka entirely on sketches;
* :mod:`~repro.sketching.multiround_conn` — the same sketch streamed over
  ``O(log n)`` rounds so each *round's* message is ``O(log² n)`` bits,
  connecting to the conclusion's "more rounds" question.

Linearity is the whole trick: a sketch of a sum is the sum of sketches, so
the referee can aggregate per-component without any node knowing anything
beyond its own neighbourhood.

The package is PEP 562-lazy: ``import repro.sketching`` loads no
submodule, and each loads on first use of one of its names, so a campaign
that names ``agm_connectivity`` alone loads neither the bipartiteness nor
the multi-round protocol.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.sketching.bipartiteness", ("SketchBipartitenessProtocol", "BipartitenessReport")),
    ("repro.sketching.field", ("MERSENNE61", "derive_params", "fadd", "fmul", "fpow")),
    ("repro.sketching.onesparse", ("OneSparseSketch", "OneSparseResult")),
    ("repro.sketching.l0sampler", ("L0Sampler", "L0SamplerParams")),
    ("repro.sketching.connectivity", ("AGMConnectivityProtocol", "SketchReport")),
    ("repro.sketching.multiround_conn", ("MultiRoundSketchConnectivity",)),
))
