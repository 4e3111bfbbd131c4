"""Referee edge cases the engine relies on: n=0, exact budgets, shuffling."""

import pytest

from repro.errors import FrugalityViolation
from repro.graphs.generators import random_forest, random_k_degenerate
from repro.graphs.labeled import LabeledGraph
from repro.model import Referee
from repro.protocols import DegeneracyReconstructionProtocol, ForestReconstructionProtocol
from repro.protocols.trivial import EmptyProtocol, IdEchoProtocol


class TestEmptyGraph:
    def test_zero_vertices_produces_empty_report(self):
        report = Referee().run(EmptyProtocol(), LabeledGraph(0))
        assert report.n == 0
        assert report.max_message_bits == 0
        assert report.total_message_bits == 0
        assert report.per_vertex_bits == ()

    def test_zero_vertices_with_all_referee_options(self):
        from repro.engine import FaultSpec

        referee = Referee(
            budget_bits=0,
            shuffle_delivery=True,
            faults=FaultSpec(drop=0.5, seed=1),
        )
        report = referee.run(EmptyProtocol(), LabeledGraph(0))
        assert report.n == 0
        assert report.output is None

    def test_no_executor_option(self):
        # One round is one plain loop of local calls; runs fan out, rounds don't.
        from repro.engine import SerialExecutor

        with pytest.raises(TypeError):
            Referee(executor=SerialExecutor())


class TestExactBudget:
    def test_budget_equal_to_message_length_passes(self):
        g = random_forest(24, 3, seed=5)
        protocol = ForestReconstructionProtocol()
        longest = max(m.bits for m in protocol.message_vector(g))
        report = Referee(budget_bits=longest).run(protocol, g)
        assert report.output == g
        assert report.max_message_bits == longest

    def test_budget_one_below_raises_with_witness(self):
        g = random_forest(24, 3, seed=5)
        protocol = ForestReconstructionProtocol()
        longest = max(m.bits for m in protocol.message_vector(g))
        with pytest.raises(FrugalityViolation) as exc:
            Referee(budget_bits=longest - 1).run(protocol, g)
        assert exc.value.bits == longest
        assert exc.value.budget == longest - 1
        assert exc.value.vertex in set(g.vertices())

    def test_zero_budget_accepts_empty_messages(self):
        g = random_forest(10, 2, seed=1)
        report = Referee(budget_bits=0).run(EmptyProtocol(), g)
        assert report.total_message_bits == 0


class TestShuffleInvariance:
    def test_output_and_bits_invariant_across_shuffle_seeds(self):
        g = random_k_degenerate(40, 2, seed=7)
        protocol = DegeneracyReconstructionProtocol(2)
        baseline = Referee().run(protocol, g)
        for seed in (None, 0, 1, 2, 12345):
            shuffled = Referee(shuffle_delivery=True, shuffle_seed=seed).run(protocol, g)
            assert shuffled.output == baseline.output == g
            assert shuffled.per_vertex_bits == baseline.per_vertex_bits
            assert shuffled.max_message_bits == baseline.max_message_bits
            assert shuffled.total_message_bits == baseline.total_message_bits
