"""End-to-end tests for the Theorem 1–3 reductions with oracle detectors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import BitReader, BitWriter
from repro.graphs import LabeledGraph
from repro.graphs.families import figure1_base, figure2_base, petersen
from repro.graphs.generators import (
    erdos_renyi,
    path_graph,
    random_bipartite,
    random_square_free,
    random_tree,
)
from repro.model import Message, Referee
from repro.reductions import (
    DiameterReduction,
    OracleDiameterDetector,
    OracleSquareDetector,
    OracleTriangleDetector,
    SquareReduction,
    TriangleReduction,
)
from repro.reductions.framing import _read_delta, _write_delta, pack_messages, unpack_messages


#: Part lengths whose length prefix ``bits + 1`` crosses every length class
#: of the Elias delta code (prefix values 1, 2, 3, 4, 8, 9, 256, 257).
LENGTH_CLASSES = (0, 1, 2, 3, 7, 8, 255, 256)


def _delta_len(v):
    """|δ(v)| = ⌊log2 v⌋ + 2⌊log2(⌊log2 v⌋ + 1)⌋ + 1, for v >= 1."""
    log_v = v.bit_length() - 1  # ⌊log2 v⌋
    return log_v + 2 * ((log_v + 1).bit_length() - 1) + 1


def _part(nbits, seed):
    """A deterministic ``nbits``-bit part with a mix of zeros and ones."""
    return Message(random.Random(seed).getrandbits(nbits) if nbits else 0, nbits)


def _framed_by_every_class():
    parts = [_part(nbits, seed) for seed, nbits in enumerate(LENGTH_CLASSES)]
    return parts, pack_messages(parts)


class TestFraming:
    def test_roundtrip(self):
        parts = [Message(0b101, 3), Message.empty(), Message(0xFFFF, 16)]
        packed = pack_messages(parts)
        assert unpack_messages(packed, 3) == parts

    @pytest.mark.parametrize("nbits", LENGTH_CLASSES)
    def test_roundtrip_every_length_class(self, nbits):
        for part in (_part(nbits, 0), Message((1 << nbits) - 1, nbits), Message(0, nbits)):
            assert unpack_messages(pack_messages([part]), 1) == [part]
            pair = [part, _part(nbits, 1)]
            assert unpack_messages(pack_messages(pair), 2) == pair

    def test_roundtrip_all_classes_in_one_frame(self):
        parts, packed = _framed_by_every_class()
        assert unpack_messages(packed, len(parts)) == parts

    def test_packed_length_is_parts_plus_delta_prefixes(self):
        parts, packed = _framed_by_every_class()
        assert packed.bits == sum(p.bits + _delta_len(p.bits + 1) for p in parts)
        for nbits in LENGTH_CLASSES:
            assert pack_messages([Message(0, nbits)]).bits == nbits + _delta_len(nbits + 1)

    @pytest.mark.parametrize("nbits, prefix", [
        (0, "1"), (1, "0100"), (2, "0101"), (3, "01100"), (7, "00100000"),
        (8, "00100001"), (255, "0001001" + "0" * 8), (256, "0001001" + "0" * 7 + "1"),
    ])
    def test_length_prefix_is_the_textbook_delta_code(self, nbits, prefix):
        packed = pack_messages([Message(0, nbits)])
        assert format(packed.acc >> nbits, f"0{packed.bits - nbits}b") == prefix

    @pytest.mark.parametrize("value", [1, 2, 3, 16, 17, 255, 1 << 40])
    def test_delta_code_roundtrip(self, value):
        w = BitWriter()
        _write_delta(w, value)
        assert len(w) == _delta_len(value)
        r = BitReader(*w.to_int())
        assert _read_delta(r) == value
        r.expect_exhausted()

    def test_delta_code_rejects_zero(self):
        from repro.errors import CodecError

        with pytest.raises(CodecError):
            _write_delta(BitWriter(), 0)

    @given(values=st.lists(st.integers(min_value=1, max_value=1 << 48), max_size=30))
    def test_delta_words_concatenate_without_framing(self, values):
        w = BitWriter()
        for value in values:
            _write_delta(w, value)
        assert len(w) == sum(_delta_len(v) for v in values)
        r = BitReader(*w.to_int())
        assert [_read_delta(r) for _ in values] == values
        r.expect_exhausted()

    @given(value=st.integers(min_value=1, max_value=1 << 200))
    def test_delta_code_roundtrip_huge_values(self, value):
        w = BitWriter()
        _write_delta(w, value)
        assert _read_delta(BitReader(*w.to_int())) == value

    def test_every_truncated_frame_raises(self):
        from repro.errors import DecodeError

        parts, packed = _framed_by_every_class()
        for cut in range(1, packed.bits + 1):
            with pytest.raises(DecodeError):
                unpack_messages(Message(packed.acc >> cut, packed.bits - cut), len(parts))

    @pytest.mark.parametrize("extra_bits", [1, 2, 7, 8, 9])
    def test_over_long_frame_raises(self, extra_bits):
        from repro.errors import DecodeError

        parts, packed = _framed_by_every_class()
        for tail in (0, (1 << extra_bits) - 1):
            longer = Message((packed.acc << extra_bits) | tail, packed.bits + extra_bits)
            with pytest.raises(DecodeError):
                unpack_messages(longer, len(parts))

    def test_length_prefix_past_the_end_raises(self):
        from repro.errors import DecodeError

        # δ's gamma part claims a 2^24-bit length field in a 49-bit frame
        with pytest.raises(DecodeError):
            unpack_messages(Message(1 << 24, 49), 1)

    def test_wrong_count_raises(self):
        from repro.errors import DecodeError

        packed = pack_messages([Message(1, 1)])
        with pytest.raises(DecodeError):
            unpack_messages(packed, 2)

    def test_leftover_raises(self):
        from repro.errors import DecodeError

        packed = pack_messages([Message(1, 1), Message(0, 2)])
        with pytest.raises(DecodeError):
            unpack_messages(packed, 1)


class TestSquareReduction:
    """Theorem 1: detector Γ ⇒ reconstructor Δ for square-free graphs."""

    def test_reconstructs_petersen(self):
        delta = SquareReduction(OracleSquareDetector())
        g = petersen()
        assert delta.reconstruct(g) == g

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstructs_random_square_free(self, seed):
        delta = SquareReduction(OracleSquareDetector())
        g = random_square_free(8, 0.3, seed=seed)
        assert delta.reconstruct(g) == g

    def test_reconstructs_trees(self):
        delta = SquareReduction(OracleSquareDetector())
        g = random_tree(9, seed=5)
        assert delta.reconstruct(g) == g

    def test_message_blowup_is_k_of_2n(self):
        """The paper's remark: Δ uses k(2n) bits where Γ uses k(n)."""
        gamma = OracleSquareDetector()
        delta = SquareReduction(gamma)
        g = random_square_free(8, 0.3, seed=1)
        # oracle's k(n) = n bits, so Δ's messages must be exactly 2n = 16 bits
        assert delta.max_message_bits(g) == 2 * g.n

    def test_local_is_st_independent(self):
        """Δ's local phase sends ONE message usable for every (s,t) simulation."""
        delta = SquareReduction(OracleSquareDetector())
        m = delta.local(4, 2, frozenset({1, 3}))
        # equals Γ's message for vertex 2 of the gadget: N ∪ {2+4}
        expected = OracleSquareDetector().local(8, 2, frozenset({1, 3, 6}))
        assert m == expected


class TestDiameterReduction:
    """Theorem 2: diameter-≤3 detector ⇒ reconstructor for ALL graphs."""

    @pytest.mark.parametrize("gen", [
        lambda: figure1_base(),
        lambda: erdos_renyi(7, 0.4, seed=3),
        lambda: erdos_renyi(7, 0.8, seed=4),
        lambda: path_graph(6),
        lambda: LabeledGraph(5),  # edgeless
        lambda: LabeledGraph(6, [(1, 2), (4, 5)]),  # disconnected
    ])
    def test_reconstructs_arbitrary_graphs(self, gen):
        delta = DiameterReduction(OracleDiameterDetector(3))
        g = gen()
        assert delta.reconstruct(g) == g

    def test_message_blowup_is_3x_plus_framing(self):
        """"Δ is frugal, since its messages are three times as big as those of Γ"."""
        gamma = OracleDiameterDetector(3)
        delta = DiameterReduction(gamma)
        g = figure1_base()
        gamma_bits = g.n + 3  # oracle message on an (n+3)-vertex gadget
        bits = delta.max_message_bits(g)
        assert bits >= 3 * gamma_bits
        assert bits <= 3 * gamma_bits + 40  # delta-code framing overhead only

    def test_referee_run(self):
        g = erdos_renyi(6, 0.5, seed=9)
        report = Referee().run(DiameterReduction(OracleDiameterDetector(3)), g)
        assert report.output == g


class TestTriangleReduction:
    """Theorem 3: triangle detector ⇒ reconstructor for triangle-free graphs."""

    def test_reconstructs_figure2(self):
        delta = TriangleReduction(OracleTriangleDetector())
        g = figure2_base()
        assert delta.reconstruct(g) == g

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstructs_bipartite(self, seed):
        delta = TriangleReduction(OracleTriangleDetector())
        g = random_bipartite(5, 4, 0.4, seed=seed)
        assert delta.reconstruct(g) == g

    def test_reconstructs_triangle_free_nonbipartite(self):
        """C5 is triangle-free but odd: the reduction covers it too."""
        from repro.graphs.generators import cycle_graph

        delta = TriangleReduction(OracleTriangleDetector())
        g = cycle_graph(5)
        assert delta.reconstruct(g) == g

    def test_message_blowup_is_2x_plus_framing(self):
        gamma = OracleTriangleDetector()
        delta = TriangleReduction(gamma)
        g = figure2_base()
        gamma_bits = g.n + 1
        bits = delta.max_message_bits(g)
        assert bits >= 2 * gamma_bits
        assert bits <= 2 * gamma_bits + 30


@settings(max_examples=10, deadline=None)
@given(n=st.integers(3, 7), p=st.floats(0.1, 0.7), seed=st.integers(0, 999))
def test_diameter_reduction_identity_property(n, p, seed):
    """Property: the Theorem 2 reduction reconstructs ANY graph exactly."""
    g = erdos_renyi(n, p, seed=seed)
    assert DiameterReduction(OracleDiameterDetector(3)).reconstruct(g) == g


@settings(max_examples=10, deadline=None)
@given(n=st.integers(3, 7), p=st.floats(0.1, 0.6), seed=st.integers(0, 999))
def test_square_reduction_identity_property(n, p, seed):
    """Property: the Theorem 1 reduction reconstructs any square-free graph."""
    g = random_square_free(n, p, seed=seed)
    assert SquareReduction(OracleSquareDetector()).reconstruct(g) == g
