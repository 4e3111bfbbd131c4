"""Parity of the flat-counter AGM codec with its reference twin, the L0 sampler.

``repro.sketching.agm`` encodes and decodes without building any sketch
object.  The references below are the object-based forms it replaced: one
:class:`L0Sampler` per round fed the updates and packed field by field
with ``BitWriter.write_many``, and one ``L0Sampler.from_counters(...)
.sample()`` per component root.  Every message and every Borůvka round
must agree with them exactly, on honest and on forged input.
"""

import random

import pytest

from repro.bits.writer import BitWriter
from repro.errors import CodecError, SketchFailure
from repro.graphs.generators import erdos_renyi, random_tree
from repro.graphs.unionfind import UnionFind
from repro.model.message import Message
from repro.sketching import agm, bipartiteness, connectivity, multiround_conn
from repro.sketching.agm import Bank, boruvka_round, edge_pair, encode, incidence_updates
from repro.sketching.bipartiteness import SketchBipartitenessProtocol
from repro.sketching.connectivity import AGMConnectivityProtocol
from repro.sketching.field import MERSENNE61
from repro.sketching.l0sampler import L0Sampler, L0SamplerParams
from repro.sketching.multiround_conn import MultiRoundSketchConnectivity


def _ref_zigzag(x):
    return 2 * x if x >= 0 else -2 * x - 1


def _ref_unzigzag(u):
    return u // 2 if u % 2 == 0 else -(u + 1) // 2


def reference_encode(streams):
    """One sampler per round, packed field by field."""
    fields = []
    for bank, updates in streams:
        w0, w1 = bank.widths
        for params in bank.params:
            sampler = L0Sampler(params)
            for index, delta in updates:
                sampler.update(index, delta)
            for c0, c1, c2 in sampler.counters():
                fields += [(_ref_zigzag(c0), w0), (_ref_zigzag(c1), w1), (c2, 61)]
    writer = BitWriter()
    writer.write_many(fields)
    return Message.from_writer(writer)


def reference_boruvka_round(uf, bank, r, sources):
    """Three reads per level, summed per root, one sampler per root."""
    w0, w1 = bank.widths
    levels = bank.params[r].levels
    chunk = levels * (w0 + w1 + 61)
    agg = {}
    for v, (msg, offset) in enumerate(sources, start=1):
        reader = msg.reader()
        reader.read_bits(offset + r * chunk)
        counters = [
            (_ref_unzigzag(reader.read_bits(w0)), _ref_unzigzag(reader.read_bits(w1)),
             reader.read_bits(61))
            for _ in range(levels)
        ]
        root = uf.find(v)
        summed = agg.get(root)
        agg[root] = counters if summed is None else [
            (a0 + b0, a1 + b1, (a2 + b2) % MERSENNE61)
            for (a0, a1, a2), (b0, b1, b2) in zip(summed, counters)
        ]
    edges, failures = [], 0
    for summed in agg.values():
        try:
            hit = L0Sampler.from_counters(bank.params[r], summed).sample()
        except SketchFailure:
            failures += 1
            continue
        if hit is None:
            continue
        u, v = edge_pair(bank.size, hit[0])
        if uf.union(u, v):
            edges.append((u, v) if u < v else (v, u))
    return edges, failures


def _pack(bank, counters):
    """A one-bank message holding ``counters[r][level]`` for every round."""
    w0, w1 = bank.widths
    fields = [
        field
        for per_round in counters
        for c0, c1, c2 in per_round
        for field in ((_ref_zigzag(c0), w0), (_ref_zigzag(c1), w1), (c2, 61))
    ]
    writer = BitWriter()
    writer.write_many(fields)
    return Message.from_writer(writer)


def _bank(size, seed, rounds=3):
    m = max(1, size * (size - 1) // 2)
    return Bank(size, tuple(L0SamplerParams.derive(m, seed, size, r) for r in range(rounds)))


# --------------------------------------------------------------------------- #
# zigzag
# --------------------------------------------------------------------------- #


class TestZigzag:
    def test_small_values_interleave(self):
        assert [agm._zigzag(x) for x in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("x", [0, 1, -1, 2**62, 2**63 - 1, 2**63, 2**64 + 5, -2**70])
    def test_round_trip(self, x):
        assert agm._unzigzag(agm._zigzag(x)) == x
        assert agm._zigzag(x) == _ref_zigzag(x)

    def test_seeded_sweep_round_trips(self):
        rng = random.Random(2024)
        for _ in range(2000):
            x = rng.randrange(-2**200, 2**200) >> rng.randrange(200)
            u = agm._zigzag(x)
            assert u >= 0 and agm._unzigzag(u) == x


# --------------------------------------------------------------------------- #
# encode
# --------------------------------------------------------------------------- #


class TestEncodeParity:
    @pytest.mark.parametrize(("protocol", "module"), [
        (AGMConnectivityProtocol(seed=5), connectivity),
        (SketchBipartitenessProtocol(seed=5), bipartiteness),
    ], ids=["connectivity", "bipartiteness"])
    def test_protocol_messages_match(self, protocol, module, monkeypatch):
        graphs = [erdos_renyi(n, 0.3, seed=n) for n in (2, 3, 9, 20)] + [random_tree(33, seed=1)]
        fast = [protocol.message_vector(g) for g in graphs]
        monkeypatch.setattr(module, "encode", reference_encode)
        assert fast == [protocol.message_vector(g) for g in graphs]

    def test_multiround_one_round_bank_matches(self, monkeypatch):
        protocol = MultiRoundSketchConnectivity(seed=2)
        g = erdos_renyi(17, 0.25, seed=4)

        def messages():
            return [protocol.node_step(g.n, i, g.neighbors(i), r, Message.empty())
                    for r in range(protocol.rounds(g.n)) for i in g.vertices()]

        fast = messages()
        monkeypatch.setattr(multiround_conn, "encode", reference_encode)
        assert fast == messages()

    def test_seeded_random_streams(self):
        rng = random.Random(7)
        for trial in range(60):
            banks = [_bank(rng.randrange(2, 40), trial, rng.randrange(1, 4))
                     for _ in range(rng.randrange(1, 4))]
            streams = []
            for bank in banks:
                m = bank.params[0].m
                # distinct ±1 coordinates as in an incidence vector, plus
                # cancelling pairs that sum to zero
                support = rng.sample(range(m), min(m, bank.size - 1))
                updates = [(i, rng.choice((1, -1))) for i in support]
                for i in rng.sample(range(m), min(m, 3)):
                    updates += [(i, 2), (i, -2)]
                rng.shuffle(updates)
                streams.append((bank, updates))
            assert encode(streams) == reference_encode(streams)

    def test_empty_streams(self):
        assert encode([]) == reference_encode([]) == Message.empty()
        bank = _bank(10, 1)
        message = encode([(bank, [])])
        assert message == reference_encode([(bank, [])]) == Message(0, bank.bits)

    def test_hash_zero_reaches_the_last_level(self):
        size, index = 12, 17
        alpha = 123456789
        params = L0SamplerParams(m=size * (size - 1) // 2, levels=8, alpha=alpha,
                                 beta=-alpha * index % MERSENNE61, z=987654321)
        assert (params.alpha * index + params.beta) % MERSENNE61 == 0
        bank = Bank(size, (params, params))
        streams = [(bank, [(index, 1), (3, -1)])]
        message = encode(streams)
        assert message == reference_encode(streams)
        assert message.acc & ((1 << sum(bank.widths) + 61) - 1)  # last level is non-zero

    @pytest.mark.parametrize("index", [-1, 45])
    def test_out_of_range_index_raises(self, index):
        bank = _bank(10, 3)  # m = 45
        with pytest.raises(ValueError, match="outside 0..44"):
            encode([(bank, [(2, 1), (index, 1)])])
        with pytest.raises(ValueError, match="outside 0..44"):
            reference_encode([(bank, [(2, 1), (index, 1)])])

    def test_overflowing_counter_raises_codec_error(self):
        bank = _bank(10, 3)
        streams = [(bank, [(4, 1 << 40)])]
        with pytest.raises(CodecError, match="does not fit"):
            encode(streams)
        with pytest.raises(CodecError, match="does not fit"):
            reference_encode(streams)


# --------------------------------------------------------------------------- #
# decode: the inlined recovery against L0Sampler.sample
# --------------------------------------------------------------------------- #


def _sampler_counters(params, updates):
    sampler = L0Sampler(params)
    for index, delta in updates:
        sampler.update(index, delta)
    return sampler.counters()


def _counter_sets(params):
    one = _sampler_counters(params, [(11, -1)])
    dense = _sampler_counters(params, [(i, 1) for i in range(0, params.m, 3)])
    forged = [(c0, c1, (c2 + 1) % MERSENNE61) for c0, c1, c2 in one]
    return {
        "zero": [(0, 0, 0)] * params.levels,
        "one-sparse": one,
        "one-sparse-heavy": _sampler_counters(params, [(20, 5)]),
        "dense": dense,
        "forged-fingerprint": forged,  # c1/c0 = 11 in range, c2 wrong
        "c0-zero": [(0, 7, 5)] + [(0, 0, 0)] * (params.levels - 1),
        # fingerprints that match an index outside 0..m-1
        "index-past-m": [(1, params.m, pow(params.z, params.m + 1, MERSENNE61))]
        + [(0, 0, 0)] * (params.levels - 1),
        "index-negative": [(1, -1, 1)] + [(0, 0, 0)] * (params.levels - 1),
        "c2-unreduced": [(0, 0, MERSENNE61)] + [(0, 0, 0)] * (params.levels - 1),
    }


_SIZE = 10
_BANK = _bank(_SIZE, 9, rounds=1)
_PARAMS = _BANK.params[0]


def _expected(counters):
    try:
        hit = L0Sampler.from_counters(_PARAMS, counters).sample()
    except SketchFailure:
        return [], 1
    return ([edge_pair(_SIZE, hit[0])] if hit else []), 0


@pytest.mark.parametrize("name", sorted(_counter_sets(_PARAMS)))
def test_lone_vertex_recovery_matches_sample(name):
    counters = _counter_sets(_PARAMS)[name]
    zero = [(0, 0, 0)] * _PARAMS.levels
    sources = [(_pack(_BANK, [counters if v == 1 else zero]), 0) for v in range(1, _SIZE + 1)]
    assert boruvka_round(UnionFind(_SIZE), _BANK, 0, sources) == _expected(counters)


@pytest.mark.parametrize("a", sorted(_counter_sets(_PARAMS)))
@pytest.mark.parametrize("b", ["zero", "one-sparse", "forged-fingerprint", "c2-unreduced"])
def test_summed_component_matches_reference(a, b):
    sets = _counter_sets(_PARAMS)
    zero = [(0, 0, 0)] * _PARAMS.levels
    rows = [sets[a], sets[b]] + [zero] * (_SIZE - 2)
    sources = [(_pack(_BANK, [row]), 0) for row in rows]
    fast_uf, ref_uf = UnionFind(_SIZE), UnionFind(_SIZE)
    for uf in (fast_uf, ref_uf):
        uf.union(1, 2)
    expected = reference_boruvka_round(ref_uf, _BANK, 0, sources)
    assert boruvka_round(fast_uf, _BANK, 0, sources) == expected
    assert fast_uf.parent == ref_uf.parent


@pytest.mark.parametrize("protocol", [
    AGMConnectivityProtocol(seed=4), SketchBipartitenessProtocol(seed=4),
], ids=["connectivity", "bipartiteness"])
def test_every_round_matches_reference_on_flipped_messages(protocol):
    """Honest and bit-flipped messages, every round, components pre-merged."""
    rng = random.Random(11)
    for trial in range(12):
        n = rng.randrange(3, 14)
        g = erdos_renyi(n, 0.3, seed=trial)
        messages = protocol.message_vector(g)
        if trial % 2:
            for _ in range(rng.randrange(1, 20)):
                v = rng.randrange(n)
                messages[v] = Message(messages[v].acc ^ (1 << rng.randrange(messages[v].bits)),
                                      messages[v].bits)
        if isinstance(protocol, SketchBipartitenessProtocol):
            g_bank, dc_bank = protocol.banks(n)
            _, lift, primed = agm.bank_offsets(messages, [g_bank, dc_bank, dc_bank])
            layouts = [(g_bank, [(m, 0) for m in messages]),
                       (dc_bank, [(m, lift) for m in messages] + [(m, primed) for m in messages])]
        else:
            layouts = [(protocol.bank(n), [(m, 0) for m in messages])]
        for bank, sources in layouts:
            fast_uf, ref_uf = UnionFind(bank.size), UnionFind(bank.size)
            for _ in range(rng.randrange(bank.size)):
                u, v = rng.randrange(1, bank.size + 1), rng.randrange(1, bank.size + 1)
                fast_uf.union(u, v)
                ref_uf.union(u, v)
            for r in range(len(bank.params)):
                assert (boruvka_round(fast_uf, bank, r, sources)
                        == reference_boruvka_round(ref_uf, bank, r, sources))
                assert fast_uf.parent == ref_uf.parent


def test_incidence_streams_round_trip_through_recovery():
    """A lone vertex of degree one samples exactly its one edge."""
    n = 9
    bank = _bank(n, 6, rounds=1)
    sources = [(encode([(bank, incidence_updates(n, v, [4] if v == 2 else []))]), 0)
               for v in range(1, n + 1)]
    # vertex 2 and vertex 4 both see the edge; 4 sends nothing here, so 2's
    # component samples {2, 4} and vertex 4's zero sketch is isolated
    edges, failures = boruvka_round(UnionFind(n), bank, 0, sources)
    assert (edges, failures) == ([(2, 4)], 0)
