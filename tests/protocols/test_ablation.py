"""Ablation tests: what breaks when pieces of the paper's design are removed.

These pin down *why* Algorithm 3 sends what it sends:

* fewer than ``deg(x)`` power sums cannot determine the neighbourhood
  (Wright's theorem is tight — Theorem 4 needs all k powers);
* a protocol parameterized below the true degeneracy gets stuck, it never
  silently mis-reconstructs (the failure mode is a rejection, not a wrong
  graph);
* the ID field cannot be dropped: messages are a *vector* only because each
  carries its sender.
"""

import pytest

from repro.errors import DecodeError, RecognitionFailure
from repro.graphs import degeneracy
from repro.graphs.generators import k_tree, random_k_degenerate
from repro.protocols import DegeneracyReconstructionProtocol
from repro.protocols.powersum import compute_power_sums, decode_neighborhood_newton


class TestPowerSumCountIsTight:
    def test_k_minus_one_sums_cannot_decode_degree_k(self):
        """Decoding a degree-3 neighbourhood from 2 power sums must fail loudly."""
        nbhd = frozenset({2, 5, 9})
        sums = compute_power_sums(nbhd, 3)
        with pytest.raises(DecodeError):
            decode_neighborhood_newton(3, sums[:2], 12)

    def test_first_power_sum_alone_is_ambiguous(self):
        """The classical {1,4} vs {2,3} collision: p1 equal, p2 differs."""
        a, b = frozenset({1, 4}), frozenset({2, 3})
        assert compute_power_sums(a, 1) == compute_power_sums(b, 1)
        assert decode_neighborhood_newton(2, compute_power_sums(a, 2), 4) == a
        assert decode_neighborhood_newton(2, compute_power_sums(b, 2), 4) == b

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_all_k_sums_suffice_exactly_at_degree_k(self, k):
        nbhd = frozenset(range(2, 2 + k))
        sums = compute_power_sums(nbhd, k)
        assert decode_neighborhood_newton(k, sums, 20) == nbhd


class TestUnderParameterizedProtocolFailsSafe:
    @pytest.mark.parametrize("k_true", [2, 3, 4])
    def test_rejects_rather_than_misreconstructs(self, k_true):
        """k' = k_true - 1: the referee gets stuck; it never returns a wrong graph."""
        g = k_tree(k_true + 10, k_true, seed=k_true)
        assert degeneracy(g) == k_true
        protocol = DegeneracyReconstructionProtocol(k_true - 1) if k_true > 1 else None
        if protocol is None:
            return
        with pytest.raises(RecognitionFailure):
            protocol.reconstruct(g)

    def test_over_parameterized_costs_bits_not_correctness(self):
        """k' > k_true still reconstructs — the price is message size only."""
        g = random_k_degenerate(20, 2, seed=5)
        small = DegeneracyReconstructionProtocol(2)
        big = DegeneracyReconstructionProtocol(5)
        assert small.reconstruct(g) == big.reconstruct(g) == g
        assert big.max_message_bits(g) > small.max_message_bits(g)


class TestMessageVectorNeedsSenderIds:
    def test_permuted_messages_decode_to_permuted_graph_or_fail(self):
        """Messages carry their sender ID, so the referee survives reordering —
        remove that property (swap two nodes' IDs inside the payloads) and the
        decode visibly breaks or yields a different labelled graph."""
        from repro.graphs.generators import random_tree
        from repro.protocols.powersum import decode_powersum_messages, encode_powersum_message

        g = random_tree(10, seed=8)
        protocol = DegeneracyReconstructionProtocol(1)
        msgs = protocol.message_vector(g)
        # swapping the position of two messages changes nothing (IDs inside)
        swapped = list(msgs)
        swapped[0], swapped[5] = swapped[5], swapped[0]
        assert protocol.global_(g.n, swapped) == g
        # but forging vertex 1's message as if sent by vertex 2 breaks the vector
        [(vertex, _, _)] = decode_powersum_messages(g.n, 1, [msgs[0]])
        assert vertex == 1
        forged = encode_powersum_message(g.n, 1, 2, g.neighbors(1))
        with pytest.raises(DecodeError):
            protocol.global_(g.n, [forged] + list(msgs[1:]))
