"""Concrete one-round protocols.

The paper's positive results and baselines:

* :mod:`~repro.protocols.powersum` — Algorithm 3's neighbourhood encoding
  (ID, degree, power sums), Theorem 4's Newton decoder, and Lemma 3's
  lookup table (measured by ``repro experiment EXP-L3``);
* :mod:`~repro.protocols.degeneracy_reconstruction` — Algorithm 4: the
  frugal one-round protocol reconstructing degeneracy-≤k graphs
  (Theorem 5), plus its recognition variant;
* :mod:`~repro.protocols.forest` — the Section III.A special case k = 1
  (identifier, degree, sum of neighbour identifiers);
* :mod:`~repro.protocols.generalized_degeneracy` — Section III.E: prune on
  low degree in the graph *or its complement*;
* :mod:`~repro.protocols.bounded_degree` — footnote 1's baseline: nodes of
  bounded-degree graphs send their whole neighbourhood;
* :mod:`~repro.protocols.partition_connectivity` — the conclusion's
  ``O(k log n)`` bits/node connectivity protocol for k-part partitions with
  intra-part cooperation;
* :mod:`~repro.protocols.trivial` — degenerate protocols (empty, ID-echo,
  full-adjacency) used as baselines, adversary fodder, and test scaffolding.

The package is PEP 562-lazy: ``import repro.protocols`` loads no protocol
module, and each loads on first use of one of its names, so a campaign
that names one protocol loads that protocol's module alone.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.protocols.powersum", (
        "encode_powersum_message", "decode_powersum_messages", "newton_identities",
        "decode_neighborhood_newton", "PowerSumLookupTable")),
    ("repro.protocols.forest", ("ForestReconstructionProtocol",)),
    ("repro.protocols.degeneracy_reconstruction", (
        "DegeneracyReconstructionProtocol", "DegeneracyRecognitionProtocol")),
    ("repro.protocols.generalized_degeneracy", ("GeneralizedDegeneracyProtocol",)),
    ("repro.protocols.bounded_degree", ("BoundedDegreeProtocol",)),
    ("repro.protocols.partition_connectivity", ("PartitionConnectivityProtocol",)),
    ("repro.protocols.adaptive_query", ("AdaptiveQueryReconstruction",)),
    ("repro.protocols.trivial", (
        "EmptyProtocol", "IdEchoProtocol", "FullAdjacencyProtocol", "DegreeProtocol")),
))
