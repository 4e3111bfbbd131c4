"""Tests for the protocol ABC, the referee simulator, and run reports."""

import pytest

from repro.errors import FrugalityViolation, ProtocolError
from repro.graphs import LabeledGraph
from repro.graphs.generators import cycle_graph, erdos_renyi, path_graph, star_graph
from repro.model import DecisionProtocol, Message, Referee, ReconstructionProtocol
from repro.protocols import (
    DegreeProtocol,
    EmptyProtocol,
    FullAdjacencyProtocol,
    IdEchoProtocol,
)


class TestTrivialProtocols:
    def test_empty_protocol(self):
        g = path_graph(4)
        p = EmptyProtocol()
        assert p.run(g) is None
        assert p.max_message_bits(g) == 0

    def test_id_echo(self):
        g = path_graph(5)
        assert IdEchoProtocol().run(g) == [1, 2, 3, 4, 5]

    def test_degree_protocol(self):
        g = star_graph(5)
        assert DegreeProtocol().run(g) == [4, 1, 1, 1, 1]

    def test_full_adjacency_reconstructs(self):
        for g in (path_graph(6), cycle_graph(5), erdos_renyi(12, 0.4, seed=3)):
            assert FullAdjacencyProtocol().reconstruct(g) == g

    def test_full_adjacency_message_is_n_bits(self):
        g = erdos_renyi(9, 0.5, seed=1)
        assert FullAdjacencyProtocol().max_message_bits(g) == 9

    def test_message_vector_indexed_by_id(self):
        g = LabeledGraph(3, [(1, 3)])
        vec = DegreeProtocol().message_vector(g)
        assert len(vec) == 3
        # vertex 2 is isolated: degree 0
        assert vec[1].reader().read_bits(2) == 0


class TestOutputContracts:
    def test_decision_contract_violation(self):
        class Bad(DecisionProtocol):
            name = "bad"

            def local(self, n, i, neighborhood):
                return Message.empty()

            def global_(self, n, messages):
                return 42

        with pytest.raises(ProtocolError):
            Bad().decide(path_graph(2))

    def test_reconstruction_contract_violation(self):
        class Bad(ReconstructionProtocol):
            name = "bad"

            def local(self, n, i, neighborhood):
                return Message.empty()

            def global_(self, n, messages):
                return "not a graph"

        with pytest.raises(ProtocolError):
            Bad().reconstruct(path_graph(2))


class TestReferee:
    def test_run_report_fields(self):
        g = star_graph(8)
        report = Referee().run(FullAdjacencyProtocol(), g)
        assert report.n == 8
        assert report.output == g
        assert report.max_message_bits == 8
        assert report.total_message_bits == 64
        assert report.local_seconds >= 0 and report.global_seconds >= 0
        assert len(report.per_vertex_bits) == 8

    def test_budget_enforced(self):
        g = star_graph(8)
        ref = Referee(budget_bits=4)
        with pytest.raises(FrugalityViolation) as exc:
            ref.run(FullAdjacencyProtocol(), g)
        assert exc.value.bits == 8 and exc.value.budget == 4

    def test_budget_permits_small(self):
        g = star_graph(8)
        report = Referee(budget_bits=4).run(DegreeProtocol(), g)
        assert report.max_message_bits <= 4

    def test_shuffled_delivery_same_output(self):
        g = erdos_renyi(10, 0.4, seed=5)
        plain = Referee().run(FullAdjacencyProtocol(), g)
        shuffled = Referee(shuffle_delivery=True, shuffle_seed=99).run(FullAdjacencyProtocol(), g)
        assert plain.output == shuffled.output == g

    def test_empty_graph(self):
        report = Referee().run(EmptyProtocol(), LabeledGraph(0))
        assert report.max_message_bits == 0 and report.total_message_bits == 0
