"""Tests for the frugality auditor."""


import pytest

from repro.errors import FrugalityViolation
from repro.graphs.generators import erdos_renyi, star_graph
from repro.model import FrugalityAuditor, log2_ceil
from repro.protocols import DegreeProtocol, FullAdjacencyProtocol, IdEchoProtocol


class TestLog2Ceil:
    def test_values(self):
        assert [log2_ceil(n) for n in (1, 2, 3, 4, 5, 8, 9, 1024, 1025)] == [
            1, 1, 2, 2, 3, 3, 4, 10, 11,
        ]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            log2_ceil(0)


class TestAuditor:
    def test_frugal_protocol_constant(self):
        graphs = [erdos_renyi(n, 0.3, seed=n) for n in (8, 16, 32, 64)]
        report = FrugalityAuditor().audit(IdEchoProtocol(), graphs)
        assert report.graphs_audited == 4
        # id is exactly one log-unit... id_width(n) vs log2_ceil(n) may differ
        # by one bit at powers of two, so allow <= 2
        assert report.fitted_constant <= 2.0

    def test_non_frugal_protocol_constant_grows(self):
        graphs = [star_graph(n) for n in (16, 64, 256)]
        report = FrugalityAuditor().audit(FullAdjacencyProtocol(), graphs)
        # n bits per message: constant n / log n, blows past any fixed budget
        assert report.fitted_constant >= 256 / log2_ceil(256)

    def test_budget_raises_inline(self):
        auditor = FrugalityAuditor(budget_constant=1.5)
        with pytest.raises(FrugalityViolation):
            auditor.audit(FullAdjacencyProtocol(), [star_graph(64)])

    def test_rows_sorted(self):
        graphs = [star_graph(n) for n in (32, 8, 16)]
        report = FrugalityAuditor().audit(DegreeProtocol(), graphs)
        ns = [row[0] for row in report.rows()]
        assert ns == sorted(ns)
        for n, bits, unit, ratio in report.rows():
            assert unit == log2_ceil(n)
            assert ratio == pytest.approx(bits / unit)

    def test_empty_corpus(self):
        report = FrugalityAuditor().audit(DegreeProtocol(), [])
        assert report.fitted_constant == 0.0 and report.graphs_audited == 0
