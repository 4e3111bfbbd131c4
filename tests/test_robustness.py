"""Robustness fuzzing: corrupted messages never crash the referee.

The global functions are *total* on their message domain: any single-bit
corruption either surfaces as a :class:`DecodeError` (or its recognition
subclass) or decodes to *some* labelled graph / boolean — never an
unhandled exception, never a hang.  This is the library-level contract that
lets the referee run on an untrusted network.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.errors import DecodeError, ReproError
from repro.graphs import LabeledGraph
from repro.graphs.generators import (
    complete_graph,
    erdos_renyi,
    path_graph,
    random_forest,
    random_k_degenerate,
)
from repro.model import Message, Referee
from repro.model.multiround import MultiRoundProtocol
from repro.model.protocol import ReconstructionProtocol
from repro.protocols import (
    BoundedDegreeProtocol,
    DegeneracyReconstructionProtocol,
    ForestRecognitionProtocol,
    ForestReconstructionProtocol,
    GeneralizedDegeneracyProtocol,
)
from repro.protocols.adaptive_query import AdaptiveQueryReconstruction
from repro.reductions.framing import pack_messages, unpack_messages
from repro.sketching import (
    AGMConnectivityProtocol,
    MultiRoundSketchConnectivity,
    SketchBipartitenessProtocol,
)


def flip_bit(msg: Message, pos: int) -> Message:
    pos %= max(msg.bits, 1)
    return Message(msg.acc ^ (1 << pos), msg.bits) if msg.bits else msg


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 500), victim=st.integers(0, 100), pos=st.integers(0, 500))
def test_degeneracy_decoder_total_under_bitflips(seed, victim, pos):
    g = random_k_degenerate(12, 2, seed=seed)
    protocol = DegeneracyReconstructionProtocol(2)
    msgs = protocol.message_vector(g)
    msgs[victim % g.n] = flip_bit(msgs[victim % g.n], pos)
    try:
        out = protocol.global_(g.n, msgs)
    except ReproError:
        return  # detected corruption: acceptable
    assert isinstance(out, LabeledGraph)  # or a (possibly wrong) graph: total


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 300), victim=st.integers(0, 100), pos=st.integers(0, 200))
def test_forest_decoder_total_under_bitflips(seed, victim, pos):
    g = random_forest(12, 3, seed=seed)
    protocol = ForestReconstructionProtocol()
    msgs = protocol.message_vector(g)
    msgs[victim % g.n] = flip_bit(msgs[victim % g.n], pos)
    try:
        out = protocol.global_(g.n, msgs)
    except ReproError:
        return
    assert isinstance(out, LabeledGraph)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 200), victim=st.integers(0, 100), pos=st.integers(0, 400))
def test_generalized_decoder_total_under_bitflips(seed, victim, pos):
    g = erdos_renyi(8, 0.3, seed=seed)
    from repro.protocols.generalized_degeneracy import generalized_degeneracy

    k = max(1, generalized_degeneracy(g))
    protocol = GeneralizedDegeneracyProtocol(k)
    msgs = protocol.message_vector(g)
    msgs[victim % g.n] = flip_bit(msgs[victim % g.n], pos)
    try:
        out = protocol.global_(g.n, msgs)
    except ReproError:
        return
    assert isinstance(out, LabeledGraph)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100), victim=st.integers(0, 100), pos=st.integers(0, 5000))
def test_sketch_decoder_total_under_bitflips(seed, victim, pos):
    g = erdos_renyi(10, 0.3, seed=seed)
    protocol = AGMConnectivityProtocol(seed=seed)
    msgs = protocol.message_vector(g)
    msgs[victim % g.n] = flip_bit(msgs[victim % g.n], pos)
    try:
        out = protocol.global_(g.n, msgs)
    except ReproError:
        return
    assert isinstance(out, bool)


class TestTruncationAndPadding:
    def test_truncated_message_rejected(self):
        g = random_k_degenerate(8, 2, seed=1)
        protocol = DegeneracyReconstructionProtocol(2)
        msgs = protocol.message_vector(g)
        short = Message(msgs[0].acc >> 3, msgs[0].bits - 3)
        with pytest.raises(DecodeError):
            protocol.global_(g.n, [short] + msgs[1:])

    def test_padded_message_rejected(self):
        g = random_k_degenerate(8, 2, seed=2)
        protocol = DegeneracyReconstructionProtocol(2)
        msgs = protocol.message_vector(g)
        long = Message(msgs[0].acc << 2, msgs[0].bits + 2)
        with pytest.raises(DecodeError):
            protocol.global_(g.n, [long] + msgs[1:])

    def test_empty_message_rejected(self):
        protocol = BoundedDegreeProtocol(2)
        with pytest.raises(DecodeError):
            protocol.global_(2, [Message.empty(), Message.empty()])


def _truncate(msg: Message, k: int = 3) -> Message:
    return Message(msg.acc >> k, msg.bits - k)


def _forest_decode(truncate: bool):
    g = random_forest(10, 2, seed=3)
    protocol = ForestReconstructionProtocol()
    msgs = protocol.message_vector(g)
    if truncate:
        msgs[0] = _truncate(msgs[0])
    return protocol.global_(g.n, msgs)


def _bounded_degree_decode(truncate: bool):
    g = erdos_renyi(10, 0.3, seed=3)
    protocol = BoundedDegreeProtocol(10)
    msgs = protocol.message_vector(g)
    if truncate:
        msgs[0] = _truncate(msgs[0])
    return protocol.global_(g.n, msgs)


def _framing_decode(truncate: bool):
    packed = pack_messages([Message(5, 3), Message(1, 1), Message(9, 4)])
    if truncate:
        packed = _truncate(packed)
    return unpack_messages(packed, 3)


def _referee(protocol, n: int):
    """The referee's decode of an n-vector; a multi-round protocol's round 0."""
    if isinstance(protocol, MultiRoundProtocol):
        return lambda msgs: protocol.referee_step(n, 0, msgs)
    return lambda msgs: protocol.global_(n, msgs)


def _decode(protocol, g, corrupt=None, victim: int = 0, reshape=None):
    """Decode ``g``'s messages with ``msgs[victim]`` corrupted, then the
    whole vector passed through ``reshape``."""
    if isinstance(protocol, MultiRoundProtocol):
        msgs = [protocol.node_step(g.n, i, g.neighbors(i), 0, Message.empty())
                for i in g.vertices()]
    else:
        msgs = protocol.message_vector(g)
    if corrupt is not None:
        msgs[victim] = corrupt(msgs[victim])
    if reshape is not None:
        msgs = reshape(msgs)
    return _referee(protocol, g.n)(msgs)


def _decoder(protocol):
    return lambda truncate: _decode(
        protocol, erdos_renyi(10, 0.3, seed=3), _truncate if truncate else None
    )


@pytest.mark.parametrize(
    "decode",
    [_forest_decode, _bounded_degree_decode, _framing_decode,
     _decoder(AdaptiveQueryReconstruction()), _decoder(AGMConnectivityProtocol(seed=3)),
     _decoder(SketchBipartitenessProtocol(seed=3)), _decoder(MultiRoundSketchConnectivity(seed=3))],
    ids=["forest", "bounded_degree", "framing", "adaptive_query", "agm_connectivity",
         "sketch_bipartiteness", "multiround_sketch"],
)
class TestOnlyBitstreamErrorsBecomeDecodeErrors:
    def test_truncated_message_is_a_decode_error(self, decode):
        decode(truncate=False)  # the untouched messages decode
        with pytest.raises(DecodeError):
            decode(truncate=True)

    def test_reader_bug_propagates(self, decode, monkeypatch):
        from repro.bits.reader import BitReader

        def broken(self, width):
            raise TypeError("reader bug")

        monkeypatch.setattr(BitReader, "read_bits", broken)
        with pytest.raises(TypeError, match="reader bug"):
            decode(truncate=False)


# --------------------------------------------------------------------------- #
# totality over every registered protocol (plus the streamed sketch protocol)
# --------------------------------------------------------------------------- #

_MULTIROUND = "multiround_sketch"
_TOTALITY_PROTOCOLS = sorted(registry.catalog()["protocol"]) + [_MULTIROUND]


def _roster_member(name: str, n: int):
    return (MultiRoundSketchConnectivity(seed=1) if name == _MULTIROUND
            else registry.PROTOCOL.build(name, n))


def _decode_corrupted(name: str, corrupt=None, victim: int = 0, reshape=None):
    """Decode a path graph's messages with one of them corrupted.

    A path is in every registered protocol's default graph class: a forest
    of degeneracy 1 and maximum degree 2.
    """
    g = path_graph(8)
    return _decode(_roster_member(name, g.n), g, corrupt, victim, reshape)


def test_totality_roster_covers_the_catalog():
    assert len(_TOTALITY_PROTOCOLS) == 8


@pytest.mark.parametrize("name", _TOTALITY_PROTOCOLS)
class TestEveryProtocolIsTotal:
    def test_well_formed_messages_decode(self, name):
        _decode_corrupted(name)

    @pytest.mark.parametrize("victim", [0, 7])
    def test_truncated_message_is_a_decode_error(self, name, victim):
        with pytest.raises(DecodeError):
            _decode_corrupted(name, _truncate, victim)

    @pytest.mark.parametrize("victim", [0, 7])
    def test_padded_message_is_a_decode_error(self, name, victim):
        with pytest.raises(DecodeError):
            _decode_corrupted(name, lambda m: Message(m.acc << 2, m.bits + 2), victim)

    @pytest.mark.parametrize("victim", [0, 7])
    def test_empty_message_is_a_decode_error(self, name, victim):
        with pytest.raises(DecodeError):
            _decode_corrupted(name, lambda m: Message.empty(), victim)

    @pytest.mark.parametrize("reshape", [lambda m: m[:-1], lambda m: m + m[:1]],
                             ids=["one-short", "one-extra"])
    def test_wrong_message_count_is_a_decode_error(self, name, reshape):
        with pytest.raises(DecodeError):
            _decode_corrupted(name, reshape=reshape)

    @pytest.mark.parametrize("pos", [0, 1, 5, 13, 61, 200, 1000, 4095])
    def test_bit_flip_decodes_or_is_a_decode_error(self, name, pos):
        """Fixed anchors for the fuzz below: the first bits, where headers
        and length fields sit, and the last position it draws."""
        try:
            _decode_corrupted(name, lambda m: flip_bit(m, pos), victim=3)
        except DecodeError:
            pass


@settings(derandomize=True, max_examples=300)
@given(name=st.sampled_from(_TOTALITY_PROTOCOLS), victim=st.integers(0, 7),
       pos=st.integers(0, 4095))
def test_random_bit_flip_decodes_or_is_a_decode_error(name, victim, pos):
    """Any single flipped bit in any node's message of any roster protocol
    decodes or raises DecodeError, nothing else.  Derandomized, so every
    machine draws the same examples."""
    try:
        _decode_corrupted(name, lambda m: flip_bit(m, pos), victim)
    except DecodeError:
        pass


# --------------------------------------------------------------------------- #
# every registered protocol on the tiniest graphs
# --------------------------------------------------------------------------- #

#: Each is a forest of maximum degree <= 1, so inside every registered
#: protocol's default graph class.
_TINY_GRAPHS = {
    **{f"empty-{n}": LabeledGraph(n) for n in (0, 1, 2)},
    "one-edge-2": LabeledGraph(2, [(1, 2)]),
    **{f"complete-{n}": complete_graph(n) for n in (0, 1, 2)},
}


@pytest.mark.parametrize("graph", sorted(_TINY_GRAPHS))
@pytest.mark.parametrize("name", sorted(registry.catalog()["protocol"]))
def test_tiny_graphs_decode_exactly(name, graph):
    """n in {0, 1, 2}: a reconstruction returns its input, a decision a
    bool, and nothing raises."""
    g = _TINY_GRAPHS[graph]
    protocol = registry.PROTOCOL.build(name, g.n)
    out = Referee().run(protocol, g).output
    if isinstance(protocol, ReconstructionProtocol):
        assert out == g
    else:
        assert isinstance(out, bool)


def test_forest_recognition_accepts_the_empty_graph():
    assert ForestRecognitionProtocol().global_(0, []) is True


@pytest.mark.parametrize("name", _TOTALITY_PROTOCOLS)
def test_messages_for_an_empty_graph_are_a_decode_error(name):
    with pytest.raises(DecodeError, match="0 vertices"):
        _referee(_roster_member(name, 0), 0)([Message(1, 3)])
