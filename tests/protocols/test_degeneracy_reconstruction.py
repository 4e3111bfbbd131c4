"""Tests for Theorem 5: exact reconstruction of degeneracy-≤k graphs, and recognition."""

import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError, GraphError, RecognitionFailure
from repro.graphs import LabeledGraph, degeneracy
from repro.graphs.families import petersen
from repro.graphs.generators import (
    apollonian,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    fat_tree,
    grid_2d,
    hypercube,
    k_tree,
    partial_k_tree,
    path_graph,
    random_forest,
    random_k_degenerate,
    random_planar,
    random_tree,
    star_graph,
)
from repro.model import FrugalityAuditor, Referee
from repro.protocols import (
    DegeneracyReconstructionProtocol,
    DegeneracyRecognitionProtocol,
)
from repro.protocols import degeneracy_reconstruction
from repro.protocols.degeneracy_reconstruction import prune_decode
from repro.protocols.powersum import compute_power_sums, decode_neighborhood_newton


class TestReconstructionExactness:
    """The headline claim: the referee rebuilds the graph exactly."""

    @pytest.mark.parametrize("gen,k", [
        (lambda: random_tree(30, seed=1), 1),
        (lambda: random_forest(25, 5, seed=2), 1),
        (lambda: star_graph(40), 1),
        (lambda: cycle_graph(17), 2),
        (lambda: grid_2d(5, 6), 2),
        (lambda: apollonian(30, seed=3), 3),
        (lambda: random_planar(40, seed=4), 5),
        (lambda: k_tree(20, 3, seed=5), 3),
        (lambda: partial_k_tree(25, 4, seed=6), 4),
        (lambda: petersen(), 3),
        (lambda: hypercube(4), 4),
        (lambda: fat_tree(4), 4),
        # EXP-T5 scale: the largest instances the experiment table times
        (lambda: random_k_degenerate(256, 3, seed=11), 3),
        (lambda: random_k_degenerate(512, 2, seed=14), 2),
        (lambda: apollonian(200, seed=13), 3),
    ])
    def test_reconstructs_exactly(self, gen, k):
        g = gen()
        assert degeneracy(g) <= k  # family sanity
        protocol = DegeneracyReconstructionProtocol(k)
        assert protocol.reconstruct(g) == g

    def test_star_shows_unbounded_degree_is_fine(self):
        """Degeneracy 1 but max degree n-1: footnote-1 baselines fail here, this works."""
        g = star_graph(200)
        assert DegeneracyReconstructionProtocol(1).reconstruct(g) == g

    def test_k_larger_than_needed_still_works(self):
        g = random_tree(15, seed=8)
        assert DegeneracyReconstructionProtocol(4).reconstruct(g) == g

    def test_empty_and_tiny_graphs(self):
        assert DegeneracyReconstructionProtocol(2).global_(0, []) == LabeledGraph(0)
        assert DegeneracyReconstructionProtocol(2).reconstruct(LabeledGraph(0)) == LabeledGraph(0)
        assert DegeneracyReconstructionProtocol(2).reconstruct(LabeledGraph(1)) == LabeledGraph(1)
        g2 = LabeledGraph(2, [(1, 2)])
        assert DegeneracyReconstructionProtocol(1).reconstruct(g2) == g2

    def test_k0_rejected(self):
        with pytest.raises(GraphError):
            DegeneracyReconstructionProtocol(0)


class TestRecognition:
    """Section III's closing remark: same messages also recognize the class."""

    def test_accepts_within_bound(self):
        assert DegeneracyRecognitionProtocol(2).decide(cycle_graph(10)) is True

    def test_rejects_above_bound(self):
        # K5 has degeneracy 4
        assert DegeneracyRecognitionProtocol(3).decide(complete_graph(5)) is False

    def test_forest_recognizer_vs_cycle(self):
        assert DegeneracyRecognitionProtocol(1).decide(random_tree(12, seed=3)) is True
        assert DegeneracyRecognitionProtocol(1).decide(cycle_graph(12)) is False

    @settings(max_examples=40)
    @given(n=st.integers(2, 16), p=st.floats(0, 0.8), seed=st.integers(0, 999), k=st.integers(1, 4))
    def test_matches_ground_truth(self, n, p, seed, k):
        g = erdos_renyi(n, p, seed=seed)
        assert DegeneracyRecognitionProtocol(k).decide(g) == (degeneracy(g) <= k)

    def test_recognition_failure_carries_witness(self):
        g = complete_graph(6)
        protocol = DegeneracyReconstructionProtocol(2)
        with pytest.raises(RecognitionFailure) as exc:
            protocol.reconstruct(g)
        assert exc.value.stuck_vertices == frozenset(range(1, 7))


class TestFrugality:
    """Lemma 2 at the protocol level: O(k² log n) bits, audited."""

    def test_frugal_across_sizes(self):
        k = 3
        graphs = [random_k_degenerate(n, k, seed=n) for n in (16, 64, 256, 1024)]
        report = FrugalityAuditor().audit(DegeneracyReconstructionProtocol(k), graphs)
        # exact constant: (2 + k(k+3)/2) * id_width(n) / log2_ceil(n); id_width
        # exceeds log2_ceil by one bit at powers of two, hence the 1.25 slack
        assert report.fitted_constant <= (2 + k * (k + 3) / 2) * 1.25

    def test_forest_recognizer_frugal(self):
        """Forests are k = 1: four ID-width fields per node."""
        graphs = [random_tree(n, seed=n) for n in (8, 64, 512)]
        report = FrugalityAuditor().audit(DegeneracyRecognitionProtocol(1), graphs)
        # id_width(8) / log2_ceil(8) = 4/3 is the worst ratio of these sizes
        assert report.fitted_constant <= 4 * 4 / 3

    def test_budgeted_referee_run(self):
        from repro.model import log2_ceil

        g = random_k_degenerate(64, 2, seed=5)
        budget = (2 + 2 * 5 // 2 + 5) * log2_ceil(64)  # generous c * log n
        report = Referee(budget_bits=budget).run(DegeneracyReconstructionProtocol(2), g)
        assert report.output == g


class TestFailureInjection:
    def test_duplicate_vertex_record(self):
        records = [(1, 0, [0]), (1, 0, [0])]
        with pytest.raises(DecodeError, match="duplicate"):
            prune_decode(2, 1, records)

    @pytest.mark.parametrize("vertex", [0, 3])
    def test_out_of_range_record(self, vertex):
        with pytest.raises(DecodeError, match=f"record for vertex {vertex} outside 1..2"):
            prune_decode(2, 1, [(1, 0, [0]), (vertex, 0, [0])])

    def test_missing_record(self):
        with pytest.raises(DecodeError, match="expected 3"):
            prune_decode(3, 1, [(1, 0, [0]), (2, 0, [0])])

    def test_corrupt_power_sum(self):
        # vertex 1 claims degree 1 with power sum pointing at vertex 9 (absent)
        records = [(1, 1, [9]), (2, 0, [0])]
        with pytest.raises(DecodeError):
            prune_decode(2, 1, records)

    def test_self_neighbour_rejected(self):
        # vertex 1's sums decode to {1}: its own ID is not a remaining neighbour
        records = [(2, 2, [4]), (3, 2, [3]), (1, 1, [1])]
        with pytest.raises(DecodeError, match=r"vertex 1 decoded neighbours \[1\] outside"):
            prune_decode(3, 1, records)

    def test_negative_power_sum_detected(self):
        # vertex 2 claims edge to 1, but vertex 1's sums don't include 2
        records = [(1, 1, [2]), (2, 1, [1]), (3, 2, [1])]  # vertex 3 inconsistent
        with pytest.raises(DecodeError):
            prune_decode(3, 1, records)

    def test_neighbour_of_current_degree_0_named(self):
        from repro.bits import BitWriter
        from repro.model import Message

        # the path 1 - 2 - 3, with vertex 1's degree field zeroed: 3 is
        # pruned, then 2 names 1, whose degree would fall to -1
        g = LabeledGraph(3, [(1, 2), (2, 3)])
        p = DegeneracyReconstructionProtocol(1)
        messages = [p.local(3, v, g.neighbors(v)) for v in g.vertices()]
        w = BitWriter()
        w.write_many([(1, 2), (0, 2), (2, 4)])
        messages[0] = Message.from_writer(w)
        with pytest.raises(DecodeError, match="vertex 1 has current degree 0"):
            p.global_(3, messages)


def _records(g, k, last, sums=None):
    """Algorithm-3 records of ``g``; ``last`` (popped first, in reverse) go
    at the end, and ``sums`` overrides the power sums of ``last[-1]``."""
    records = {v: (v, g.degree(v), list(compute_power_sums(g.neighbors(v), k)))
               for v in g.vertices()}
    if sums is not None:
        records[last[-1]] = (last[-1], g.degree(last[-1]), list(sums))
    return [records[v] for v in g.vertices() if v not in last] + [records[v] for v in last]


def _outcome(n, k, records):
    try:
        return prune_decode(n, k, [(v, d, list(s)) for v, d, s in records])
    except DecodeError as exc:
        return type(exc)


def _newton_outcome(n, k, records):
    """``_outcome`` with the degree-2 closed form off: ``isqrt`` finds no
    root, so every degree-2 decode takes ``decode_neighborhood_newton``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(degeneracy_reconstruction, "math", types.SimpleNamespace(isqrt=lambda _: 0))
        return _outcome(n, k, records)


def _sums_of(*roots):
    return (sum(roots), sum(r * r for r in roots))


class TestInlineSmallDegree:
    """The closed-form decode of degrees 0..2 against the Newton reference."""

    @pytest.mark.parametrize("n", [2, 3, 1024, 2**16])
    def test_valid_neighbourhoods_match_newton(self, n):
        """Disjoint cherries a - x - b whose centres x are pruned at degree 2:
        both end IDs, the two smallest, the two largest, and random pairs."""
        if n == 2:
            g, centres = LabeledGraph(2, [(1, 2)]), [2]
        elif n == 3:
            g, centres = LabeledGraph(3, [(1, 2), (2, 3)]), [2]
        else:
            pairs = [(1, n), (2, 3), (n - 2, n - 1)]
            rng = random.Random(n)
            free = rng.sample(range(4, n - 2), 12)
            pairs += [(free.pop(), free.pop()) for _ in range(3)]
            centres = free[:len(pairs)]
            g = LabeledGraph(n, [(x, v) for x, pair in zip(centres, pairs) for v in pair])
        records = _records(g, 2, centres)
        assert _outcome(n, 2, records) == _newton_outcome(n, 2, records) == g

    @pytest.mark.parametrize("n", [10, 1024])
    @pytest.mark.parametrize("case", [
        "negative_disc", "zero_disc", "non_square_disc", "negative_root",
        "zero_root", "root_above_n", "root_is_x", "wrong_valid_pair",
    ])
    def test_corrupted_sums_match_newton(self, n, case):
        x, a, b = 4, 2, 7
        sums = {
            "negative_disc": (5, 12),        # 2·12 - 25 < 0
            "zero_disc": _sums_of(3, 3),     # a repeated root
            "non_square_disc": (5, 15),      # 2·15 - 25 = 5
            "negative_root": _sums_of(-1, 5),
            "zero_root": _sums_of(0, 5),
            "root_above_n": _sums_of(3, n + 2),
            "root_is_x": _sums_of(x, a),
            "wrong_valid_pair": _sums_of(1, 9),  # vertex 1 is isolated
        }[case]
        g = LabeledGraph(n, [(a, x), (x, b), (b, 9), (9, a)])
        records = _records(g, 2, [x], sums)
        newton = _newton_outcome(n, 2, records)
        assert _outcome(n, 2, records) == newton is DecodeError

    @pytest.mark.parametrize("seed", range(4))
    def test_flipped_sum_bits_match_newton(self, seed):
        """Corrupt input that still decodes for a while: the pruning order,
        and so the outcome, must be the reference one (a bit flip at a
        vertex is pruned around until the bad sums surface, or never do)."""
        rng = random.Random(seed)
        for _ in range(100):
            n = rng.choice([16, 32, 64])
            g = random_k_degenerate(n, 2, seed=rng.randrange(10**6))
            records = _records(g, 2, [])
            v, d, sums = records[rng.randrange(n)]
            p = rng.randrange(2)
            sums[p] ^= 1 << rng.randrange(sums[p].bit_length() + 2)
            assert _outcome(n, 2, records) == _newton_outcome(n, 2, records)

    def test_valid_decodes_never_reach_newton(self, monkeypatch):
        def boom(degree, power_sums, n):
            raise AssertionError(f"Newton decode of degree {degree}")

        monkeypatch.setattr(degeneracy_reconstruction, "decode_neighborhood_newton", boom)
        for g in (cycle_graph(12), path_graph(9), star_graph(7)):
            assert DegeneracyReconstructionProtocol(2).reconstruct(g) == g


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 30), k=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_reconstruction_identity_property(n, k, seed):
    """Property: for any random k-degenerate graph, reconstruct(G) == G."""
    g = random_k_degenerate(n, k, seed=seed)
    assert DegeneracyReconstructionProtocol(k).reconstruct(g) == g


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 14), p=st.floats(0, 1), seed=st.integers(0, 999))
def test_reconstruction_with_true_degeneracy_property(n, p, seed):
    """Property: any graph reconstructs once k is set to its true degeneracy."""
    g = erdos_renyi(n, p, seed=seed)
    k = max(1, degeneracy(g))
    assert DegeneracyReconstructionProtocol(k).reconstruct(g) == g
