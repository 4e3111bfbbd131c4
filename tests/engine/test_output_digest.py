"""``output_digest`` on graphs hashes the same bytes as the per-edge f-string join.

Record pins hash these bytes, so ``LabeledGraph.edge_text`` must equal
``f"{n};" + ";".join(f"{u},{v}" for u, v in g.edges())`` on every graph,
including the ones decoders build through ``_from_adjacency``.
"""

import hashlib

import pytest

from repro.engine.scenario import output_digest
from repro.graphs import LabeledGraph
from repro.graphs.generators import complete_graph, erdos_renyi, random_k_degenerate
from repro.protocols import DegeneracyReconstructionProtocol


def _reference_text(g):
    return f"{g.n};" + ";".join(f"{u},{v}" for u, v in g.edges())


GRAPHS = {
    "n0": lambda: LabeledGraph(0),
    "n1": lambda: LabeledGraph(1),
    "edgeless": lambda: LabeledGraph(12),
    "K6": lambda: complete_graph(6),
    "gnp-30": lambda: erdos_renyi(30, 0.3, seed=5),
    "gnp-120": lambda: erdos_renyi(120, 0.05, seed=6),
    "degenerate-200": lambda: random_k_degenerate(200, 3, seed=2),
    "decoded-200": lambda: DegeneracyReconstructionProtocol(3).reconstruct(
        random_k_degenerate(200, 3, seed=3)),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_edge_text_matches_the_per_edge_join(name):
    g = GRAPHS[name]()
    text = _reference_text(g)
    assert g.edge_text() == text
    assert output_digest(g) == ("graph", hashlib.sha256(text.encode()).hexdigest()[:16])


def test_pinned_digests():
    assert output_digest(complete_graph(6)) == ("graph", "f69bc6d8e5e8ffdb")
    assert output_digest(random_k_degenerate(64, 3, seed=1)) == ("graph", "73593622a7f285a7")
