"""Concrete one-round protocols.

The paper's positive results and baselines:

* :mod:`~repro.protocols.powersum` — Algorithm 3's neighbourhood encoding
  (ID, degree, power sums) and the two decoders of Lemma 3 / Theorem 4;
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
"""

from repro.protocols.powersum import (
    encode_powersum_message,
    decode_powersum_messages,
    newton_identities,
    decode_neighborhood_newton,
    PowerSumLookupTable,
)
from repro.protocols.forest import ForestReconstructionProtocol, ForestRecognitionProtocol
from repro.protocols.degeneracy_reconstruction import (
    DegeneracyReconstructionProtocol,
    DegeneracyRecognitionProtocol,
)
from repro.protocols.generalized_degeneracy import GeneralizedDegeneracyProtocol
from repro.protocols.bounded_degree import BoundedDegreeProtocol
from repro.protocols.partition_connectivity import PartitionConnectivityProtocol
from repro.protocols.adaptive_query import AdaptiveQueryReconstruction
from repro.protocols.trivial import (
    EmptyProtocol,
    IdEchoProtocol,
    FullAdjacencyProtocol,
    DegreeProtocol,
)

__all__ = [
    "encode_powersum_message",
    "decode_powersum_messages",
    "newton_identities",
    "decode_neighborhood_newton",
    "PowerSumLookupTable",
    "ForestReconstructionProtocol",
    "ForestRecognitionProtocol",
    "DegeneracyReconstructionProtocol",
    "DegeneracyRecognitionProtocol",
    "GeneralizedDegeneracyProtocol",
    "BoundedDegreeProtocol",
    "PartitionConnectivityProtocol",
    "AdaptiveQueryReconstruction",
    "EmptyProtocol",
    "IdEchoProtocol",
    "FullAdjacencyProtocol",
    "DegreeProtocol",
]
