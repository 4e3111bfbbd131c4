"""The fixed-base power tables a ``Bank`` carries, one per round.

``agm.encode`` and ``agm.boruvka_round`` read every fingerprint power
``z^e mod p`` from round ``r``'s table ``(k, lo, hi)`` as
``lo[e & (2^k−1)] · hi[e >> k] mod p``.  The tables must give ``pow``'s
value for every exponent an update can ask for (``1..m``), ride along
with the bank without changing its equality or hash, and be shared, not
rebuilt, by the multi-round protocol's one-round views.
"""

import pytest

from repro.sketching.agm import Bank, derive_bank
from repro.sketching.connectivity import AGMConnectivityProtocol
from repro.sketching.field import MERSENNE61
from repro.sketching.l0sampler import L0SamplerParams
from repro.sketching.multiround_conn import MultiRoundSketchConnectivity

SEED = 0x5EED


def _power(table, e):
    k, lo, hi = table
    return lo[e & ((1 << k) - 1)] * hi[e >> k] % MERSENNE61


def _check_shape(table, m):
    k, lo, hi = table
    assert k == (m.bit_length() + 1) // 2  # ⌈bitlen(m)/2⌉
    assert len(lo) == 1 << k
    assert len(hi) == (m >> k) + 1


@pytest.mark.parametrize("size", range(1, 41))
def test_table_matches_pow_for_every_exponent(size):
    bank = derive_bank(size, SEED, size, 2)
    assert len(bank.powers) == len(bank.params) == 2
    for params, table in zip(bank.params, bank.powers):
        _check_shape(table, params.m)
        for e in range(1, params.m + 1):
            assert _power(table, e) == pow(params.z, e, MERSENNE61), (size, e)


def test_size_one_is_a_one_slot_table():
    bank = derive_bank(1, SEED, 1, 1)
    (params,), (table,) = bank.params, bank.powers
    assert params.m == 1
    k, lo, hi = table
    assert k == 1 and lo == (1, params.z) and hi == (1,)
    assert _power(table, 1) == params.z


def test_boundary_exponents_at_size_1024():
    bank = derive_bank(1024, SEED, 1024, 1)
    (params,), (table,) = bank.params, bank.powers
    m = params.m
    _check_shape(table, m)
    k = table[0]
    assert k == 10
    for e in (1, (1 << k) - 1, 1 << k, (1 << k) + 1, m):
        assert _power(table, e) == pow(params.z, e, MERSENNE61), e


def test_tables_take_no_part_in_equality_hash_or_repr():
    params = tuple(L0SamplerParams.derive(45, SEED, 10, r) for r in range(3))
    a, b = Bank(10, params), Bank(10, params)
    assert a.powers is not b.powers and a.powers == b.powers
    assert a == b and hash(a) == hash(b)
    assert "powers" not in repr(a)
    assert Bank(10, params, a.powers) == a


@pytest.mark.parametrize("n", [2, 9, 64])
def test_multiround_views_share_the_derived_table(n):
    protocol = MultiRoundSketchConnectivity(seed=3)
    derived = AGMConnectivityProtocol(seed=3).bank(n)
    for r in range(protocol.rounds(n)):
        view = protocol._bank(n, r)
        assert view.params == (derived.params[r],)
        assert view.powers[0] is derived.powers[r]
