"""Tests for Algorithm 3's encoding and the Theorem 4 / Lemma 3 decoders."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError, GraphError
from repro.model import Message
from repro.protocols.powersum import (
    PowerSumLookupTable,
    compute_power_sums,
    decode_neighborhood_newton,
    decode_powersum_messages,
    encode_powersum_message,
    integer_roots_of_monic,
    newton_identities,
    powersum_message_bits,
)


class TestComputePowerSums:
    def test_empty_neighborhood(self):
        assert compute_power_sums(frozenset(), 3) == (0, 0, 0)

    def test_singleton(self):
        assert compute_power_sums({5}, 3) == (5, 25, 125)

    def test_pair(self):
        assert compute_power_sums({2, 3}, 2) == (5, 13)

    def test_rejects_k0(self):
        with pytest.raises(GraphError):
            compute_power_sums({1}, 0)

    def test_matches_vandermonde_matrix_product(self):
        """b = A(k,n) · x̄ — check against an explicit matrix-vector product."""
        n, k = 12, 3
        nbhd = frozenset({2, 5, 11})
        a = [[i**p for i in range(1, n + 1)] for p in range(1, k + 1)]
        x = [1 if i in nbhd else 0 for i in range(1, n + 1)]
        assert tuple(sum(aij * xj for aij, xj in zip(row, x)) for row in a) == (
            compute_power_sums(nbhd, k)
        )


class TestWrightUniqueness:
    """Theorem 4 (Wright): power sums p = 1..k determine <= k-subsets uniquely."""

    @pytest.mark.parametrize("n,k", [(8, 1), (8, 2), (8, 3), (12, 2), (6, 4)])
    def test_injective_on_small_domains(self, n, k):
        seen = {}
        for d in range(k + 1):
            for subset in combinations(range(1, n + 1), d):
                key = compute_power_sums(frozenset(subset), k)
                assert key not in seen, f"collision: {subset} vs {seen[key]}"
                seen[key] = subset

    def test_not_injective_without_enough_powers(self):
        """Sanity: one power sum alone cannot separate {1,4} from {2,3}."""
        assert compute_power_sums({1, 4}, 1) == compute_power_sums({2, 3}, 1)
        assert compute_power_sums({1, 4}, 2) != compute_power_sums({2, 3}, 2)


class TestNewtonIdentities:
    def test_known_case(self):
        # multiset {2, 3}: p1=5, p2=13 -> e1=5, e2=6
        assert newton_identities([5, 13]) == [5, 6]

    def test_three_values(self):
        # {1, 2, 4}: p=(7, 21, 73); e=(7, 14, 8)
        assert newton_identities([7, 21, 73]) == [7, 14, 8]

    def test_inconsistent_sums_raise(self):
        # p1=1, p2=2 -> e2 = (e1*p1 - p2)/2 = -1/2: not integral
        with pytest.raises(DecodeError):
            newton_identities([1, 2])

    def test_empty(self):
        assert newton_identities([]) == []


class TestIntegerRoots:
    def test_finds_roots(self):
        # (x-2)(x-5)(x-7): e = (14, 59, 70)
        assert integer_roots_of_monic([14, 59, 70], 10) == [2, 5, 7]

    def test_missing_root_raises(self):
        # (x-2)(x-12) but n = 10: root 12 out of range
        with pytest.raises(DecodeError):
            integer_roots_of_monic([14, 24], 10)

    def test_degree_zero(self):
        assert integer_roots_of_monic([], 5) == []


class TestNewtonDecode:
    @settings(max_examples=60)
    @given(data=st.data(), n=st.integers(2, 40), k=st.integers(1, 5))
    def test_roundtrip_random_subsets(self, data, n, k):
        d = data.draw(st.integers(0, min(k, n)))
        subset = frozenset(data.draw(st.permutations(range(1, n + 1)))[:d])
        sums = compute_power_sums(subset, k)
        assert decode_neighborhood_newton(len(subset), sums, n) == subset

    def test_degree_above_k_rejected(self):
        sums = compute_power_sums({1, 2, 3}, 2)
        with pytest.raises(DecodeError):
            decode_neighborhood_newton(3, sums, 5)

    def test_zero_degree(self):
        assert decode_neighborhood_newton(0, (0, 0), 5) == frozenset()

    def test_negative_degree_named(self):
        with pytest.raises(DecodeError, match="cannot decode negative degree -2"):
            decode_neighborhood_newton(-2, (3,), 5)


class TestMessageCodec:
    @pytest.mark.parametrize("n,k", [(10, 1), (10, 3), (100, 2), (1000, 4)])
    def test_encode_decode_roundtrip(self, n, k):
        nbhd = frozenset(range(2, 2 + min(k, n - 1)))
        msg = encode_powersum_message(n, k, 1, nbhd)
        [(vertex, degree, sums)] = decode_powersum_messages(n, k, [msg])
        assert vertex == 1
        assert degree == len(nbhd)
        assert tuple(sums) == compute_power_sums(nbhd, k)

    @pytest.mark.parametrize("n,k", [(16, 1), (64, 2), (256, 3), (1024, 3), (1024, 5),
                                     (4096, 3)])
    def test_message_size_formula_exact(self, n, k):
        """Lemma 2 made exact: the serialized size matches the closed form,
        whatever the neighbourhood — k largest IDs, or every other vertex
        (a star centre, whose power sums are the largest possible)."""
        for nbhd in (frozenset(range(n - k + 1, n + 1)), frozenset(range(2, n + 1))):
            msg = encode_powersum_message(n, k, 1, nbhd)
            assert msg.bits == powersum_message_bits(n, k)

    def test_message_size_is_o_k2_log_n(self):
        """Lemma 2's shape: bits / (k² log n) bounded by a small constant."""
        for n in (64, 1024, 65536):
            for k in (1, 2, 4, 8):
                ratio = powersum_message_bits(n, k) / (k * k * math.log2(n))
                assert ratio <= 5.5  # worst at k=1: (2 + k(k+3)/2) = 4 log-units

    def test_malformed_message_raises(self):
        with pytest.raises(DecodeError):
            decode_powersum_messages(10, 2, [Message(0, 3)])

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_one_bit_short_or_long_raises(self, extra):
        """Exact framing: one bit short of or past the Lemma-2 size is malformed."""
        msg = encode_powersum_message(10, 2, 1, frozenset({2, 3}))
        framed = Message(msg.acc >> 1 if extra < 0 else msg.acc << 1, msg.bits + extra)
        with pytest.raises(DecodeError, match="malformed power-sum message"):
            decode_powersum_messages(10, 2, [framed])
        with pytest.raises(DecodeError, match="malformed power-sum message"):
            decode_powersum_messages(10, 2, [msg, framed])

    def test_reader_bug_is_not_a_decode_error(self):
        """Only malformed input becomes DecodeError; a bug in the payload propagates."""
        msg = encode_powersum_message(10, 2, 1, frozenset({2, 3}))

        class BrokenMessage(Message):
            __slots__ = ()

            @property
            def acc(self):
                raise TypeError("reader bug")

        with pytest.raises(TypeError, match="reader bug"):
            decode_powersum_messages(10, 2, [BrokenMessage(msg.acc, msg.bits)])

    def test_batch_matches_single_decodes(self):
        n, k = 50, 3
        nbhds = [frozenset(), frozenset({7}), frozenset({1, 50}), frozenset({2, 3, 49})]
        msgs = [encode_powersum_message(n, k, i, nb) for i, nb in enumerate(nbhds, start=1)]
        batch = decode_powersum_messages(n, k, msgs)
        singles = [rec for m in msgs for rec in decode_powersum_messages(n, k, [m])]
        assert batch == singles
        assert [tuple(sums) for _, _, sums in batch] == [compute_power_sums(nb, k) for nb in nbhds]

    def test_empty_batch(self):
        """n = 0 sends no messages; no width is derived for an empty batch."""
        assert decode_powersum_messages(0, 2, []) == []
        with pytest.raises(DecodeError, match="1 messages for a graph on 0 vertices"):
            decode_powersum_messages(0, 2, [Message(0, 4)])

    def test_bad_vertex_id_raises(self):
        msg = encode_powersum_message(10, 1, 1, frozenset())
        # patch the ID field (first 4 bits) to 11 > n=10... encode directly
        from repro.bits import BitWriter

        w = BitWriter()
        w.write_bits(11, 4)
        w.write_bits(0, 4)
        w.write_bits(0, 8)
        with pytest.raises(DecodeError, match="vertex ID"):
            decode_powersum_messages(10, 1, [Message.from_writer(w)])

    def test_bad_degree_raises(self):
        from repro.bits import BitWriter

        w = BitWriter()
        w.write_bits(1, 4)
        w.write_bits(15, 4)  # degree 15 > n-1 = 9
        w.write_bits(0, 8)
        with pytest.raises(DecodeError, match="degree"):
            decode_powersum_messages(10, 1, [Message.from_writer(w)])


class TestLookupTable:
    def test_size(self):
        table = PowerSumLookupTable(8, 2)
        assert len(table) == 1 + 8 + 28

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_lookup_roundtrip(self, n, k):
        """Lemma 3's table and Theorem 4's Newton route agree on every
        subset of size <= k of 1..n."""
        table = PowerSumLookupTable(n, k)
        for d in range(min(k, n) + 1):
            for subset in map(frozenset, combinations(range(1, n + 1), d)):
                sums = compute_power_sums(subset, k)
                assert table.lookup(sums) == subset
                assert decode_neighborhood_newton(d, sums, n) == subset

    def test_lookup_miss_raises(self):
        table = PowerSumLookupTable(6, 2)
        with pytest.raises(DecodeError):
            table.lookup((999, 999))

    def test_guard_rejects_huge(self):
        with pytest.raises(GraphError):
            PowerSumLookupTable(10_000, 4, max_entries=1000)

    def test_rejects_k0(self):
        with pytest.raises(GraphError):
            PowerSumLookupTable(5, 0)
