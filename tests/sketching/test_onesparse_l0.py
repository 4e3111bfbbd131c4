"""Tests for the one-sparse sketch and L0 sampler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SketchFailure
from repro.sketching import L0Sampler, L0SamplerParams, OneSparseSketch
from repro.sketching.agm import derive_bank
from repro.sketching.field import MERSENNE61, derive_params, fadd, fmul, fpow, splitmix64
from repro.sketching.onesparse import RecoveryStatus


class TestField:
    def test_mersenne_value(self):
        assert MERSENNE61 == 2305843009213693951
        # actually prime: spot-check small factors
        for q in (3, 5, 7, 11, 13, 31, 61, 127):
            assert MERSENNE61 % q != 0

    def test_arithmetic(self):
        assert fadd(MERSENNE61 - 1, 2) == 1
        assert fmul(2, MERSENNE61 - 1) == MERSENNE61 - 2
        assert fpow(3, MERSENNE61 - 1) == 1  # Fermat

    def test_splitmix_deterministic(self):
        assert splitmix64(42) == splitmix64(42)
        assert splitmix64(42) != splitmix64(43)

    def test_derive_params_tag_sensitivity(self):
        assert derive_params(1, 2, 3) != derive_params(1, 3, 2)
        assert derive_params(1, 2, 3) == derive_params(1, 2, 3)


class TestOneSparse:
    def test_zero_vector(self):
        s = OneSparseSketch(100, z=12345)
        assert s.recover().status is RecoveryStatus.ZERO

    def test_one_sparse_positive(self):
        s = OneSparseSketch(100, z=999)
        s.update(37, 1)
        r = s.recover()
        assert r.status is RecoveryStatus.ONE_SPARSE
        assert (r.index, r.weight) == (37, 1)

    def test_one_sparse_negative_weight(self):
        s = OneSparseSketch(100, z=999)
        s.update(5, -3)
        r = s.recover()
        assert r.status is RecoveryStatus.ONE_SPARSE
        assert (r.index, r.weight) == (5, -3)

    def test_dense_detected(self):
        s = OneSparseSketch(100, z=7777)
        s.update(3, 1)
        s.update(50, 1)
        assert s.recover().status is RecoveryStatus.DENSE

    def test_cancelling_pair_with_c0_zero_detected(self):
        """The treacherous case: +1 and -1 at different slots (c0 = 0)."""
        s = OneSparseSketch(100, z=31337)
        s.update(10, 1)
        s.update(20, -1)
        assert s.recover().status is RecoveryStatus.DENSE

    def test_update_then_cancel_returns_zero(self):
        s = OneSparseSketch(50, z=4242)
        s.update(7, 2)
        s.update(7, -2)
        assert s.recover().status is RecoveryStatus.ZERO

    def test_linearity(self):
        a = OneSparseSketch(64, z=5555)
        b = OneSparseSketch(64, z=5555)
        a.update(9, 1)
        a.update(13, 1)
        b.update(13, -1)
        merged = a.merged(b)
        r = merged.recover()
        assert r.status is RecoveryStatus.ONE_SPARSE and r.index == 9

    def test_merge_parameter_mismatch(self):
        with pytest.raises(ValueError):
            OneSparseSketch(10, z=1).merged(OneSparseSketch(10, z=2))

    def test_bad_index(self):
        with pytest.raises(ValueError):
            OneSparseSketch(10, z=5).update(10, 1)

    def test_counters_roundtrip(self):
        s = OneSparseSketch(30, z=888)
        s.update(11, -4)
        s2 = OneSparseSketch.from_counters(30, 888, *s.counters())
        assert s2.recover() == s.recover()

    @given(idx=st.integers(0, 499), weight=st.integers(-8, 8).filter(bool), z=st.integers(1, MERSENNE61 - 1))
    def test_one_sparse_always_recovered(self, idx, weight, z):
        """Property: a genuinely one-sparse vector is always recovered exactly."""
        s = OneSparseSketch(500, z=z)
        s.update(idx, weight)
        r = s.recover()
        assert r.status is RecoveryStatus.ONE_SPARSE
        assert (r.index, r.weight) == (idx, weight)


class TestL0Sampler:
    def _params(self, m, tag=0):
        return L0SamplerParams.derive(m, seed=99, *(tag,)) if False else L0SamplerParams.derive(m, 99, tag)

    def test_zero_vector_returns_none(self):
        s = L0Sampler(self._params(64))
        assert s.sample() is None

    def test_single_coordinate(self):
        s = L0Sampler(self._params(64))
        s.update(17, 1)
        assert s.sample() == (17, 1)

    @pytest.mark.parametrize("tag", range(8))
    def test_samples_valid_coordinate_from_sparse_vectors(self, tag):
        s = L0Sampler(L0SamplerParams.derive(256, 7, tag))
        support = {3, 99, 200, 255}
        for idx in support:
            s.update(idx, 1)
        try:
            hit = s.sample()
        except SketchFailure:
            pytest.skip("this instance failed; independence handles it at protocol level")
        assert hit is not None and hit[0] in support and hit[1] == 1

    def test_dense_vector_usually_recoverable(self):
        """Over many independent instances, the failure rate is small."""
        m = 300
        support = set(range(0, 300, 7))
        ok = 0
        trials = 40
        for tag in range(trials):
            s = L0Sampler(L0SamplerParams.derive(m, 11, tag))
            for idx in support:
                s.update(idx, 1)
            try:
                hit = s.sample()
            except SketchFailure:
                continue
            assert hit is not None and hit[0] in support
            ok += 1
        assert ok >= trials * 0.6  # constant success probability per instance

    def test_linearity_cancels_internal(self):
        """The AGM cancellation pattern: merged sketches drop shared ±1 pairs."""
        params = self._params(128, tag=5)
        a = L0Sampler(params)
        b = L0Sampler(params)
        a.update(10, 1)   # internal edge, + side
        b.update(10, -1)  # internal edge, - side
        a.update(77, 1)   # boundary edge
        merged = a.merged(b)
        assert merged.sample() == (77, 1)

    def test_merge_mismatch(self):
        a = L0Sampler(self._params(64, tag=1))
        b = L0Sampler(self._params(64, tag=2))
        with pytest.raises(ValueError):
            a.merged(b)

    def test_counters_roundtrip(self):
        params = self._params(64, tag=3)
        s = L0Sampler(params)
        s.update(5, 1)
        s.update(60, -1)
        s2 = L0Sampler.from_counters(params, s.counters())
        assert [x.counters() for x in s2.sketches] == [x.counters() for x in s.sketches]

    def test_from_counters_wrong_shape(self):
        params = self._params(64, tag=4)
        with pytest.raises(ValueError):
            L0Sampler.from_counters(params, [(0, 0, 0)])


class TestBankCache:
    """The bank cache is bounded and invisible: same arguments in, same
    bank out, whatever the cache has seen, cleared, or evicted."""

    def test_cache_is_bounded(self):
        assert derive_bank.cache_info().maxsize == 1 << 12

    def test_digest_contract_across_cache_clear(self):
        keys = [(size, 0xBEC4E12011, size, 3, *suffix)
                for size in (2, 16, 300) for suffix in ((), (0,), (1,))]
        before = [derive_bank(*k) for k in keys]
        derive_bank.cache_clear()
        assert before == [derive_bank(*k) for k in keys]

    def test_eviction_cannot_change_values(self):
        """Fill a tiny clone of the cache far past its bound: late lookups
        of evicted keys still return value-identical banks."""
        from functools import lru_cache

        tiny = lru_cache(maxsize=8)(derive_bank.__wrapped__)
        keys = [(16 + i, 42, i, 2) for i in range(64)]
        first = [tiny(*k) for k in keys]
        # every early key has been evicted by now (maxsize 8 << 64 keys)
        assert tiny.cache_info().currsize == 8
        assert first == [tiny(*k) for k in keys]
        assert first == [derive_bank.__wrapped__(*k) for k in keys]

    def test_repeat_call_returns_the_same_object(self):
        a = derive_bank(128, 9, 128, 4, 1)
        assert derive_bank(128, 9, 128, 4, 1) is a  # memoized hit
        assert a == derive_bank.__wrapped__(128, 9, 128, 4, 1)  # equal by value

    def test_rounds_match_the_reference_derivation(self):
        """Round ``r`` is the plain derivation with tags ``(n, r, *suffix)``."""
        bank = derive_bank(20, 7, 10, 3, 1)
        m = 20 * 19 // 2
        assert bank.params == tuple(L0SamplerParams.derive(m, 7, 10, r, 1) for r in range(3))
