"""``encode_powersum_message``'s fixed-shift packing against a per-field writer.

The reference writes ``i``, ``deg`` and ``b_1..b_k`` one
``BitWriter.write_bits`` call a field.  On every input the encoder must
return the reference's message, or both must raise ``CodecError``.
"""

import random

import pytest

from repro.bits import BitWriter, id_width
from repro.errors import CodecError, GraphError
from repro.model.message import Message
from repro.protocols.powersum import compute_power_sums, encode_powersum_message


def _reference(n, k, i, neighborhood):
    w = id_width(n)
    writer = BitWriter()
    writer.write_bits(i, w)
    writer.write_bits(len(neighborhood), w)
    for p, b in enumerate(compute_power_sums(neighborhood, k), start=1):
        writer.write_bits(b, (p + 1) * w)
    return Message.from_writer(writer)


def _outcome(encode, n, k, i, neighborhood):
    try:
        return encode(n, k, i, neighborhood)
    except CodecError:
        return CodecError


def _inputs(n):
    """``(i, neighbourhood)`` pairs: seeded, empty, full, then bad ones."""
    rng = random.Random(n)
    w = id_width(n)
    out = []
    for _ in range(3):
        i = rng.randint(1, n)
        others = [v for v in range(1, n + 1) if v != i]
        out.append((i, frozenset(rng.sample(others, rng.randint(0, len(others))))))
    out.append((n, frozenset()))
    out.append((1, frozenset(range(2, n + 1))))
    out += [
        (1 << w, frozenset()),                   # i one bit too wide
        (-1, frozenset()),                       # negative i
        (1, frozenset({-3})),                    # negative neighbour ID
        (1, frozenset({-3, 2})),                 # odd sums may stay >= 0
        (1, frozenset({1 << w})),                # neighbour ID one bit too wide
        (1, frozenset({n ** 3})),                # far too wide
        (1, frozenset(range(2, 2 + (1 << w)))),  # degree too wide for w bits
    ]
    return out


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 1023, 1024])
def test_packing_matches_per_field_writes(n, k):
    raised = 0
    for i, neighborhood in _inputs(n):
        expected = _outcome(_reference, n, k, i, neighborhood)
        assert _outcome(encode_powersum_message, n, k, i, neighborhood) == expected, (
            i, sorted(neighborhood))
        raised += expected is CodecError
    assert raised >= 4  # at least i too wide, negative i, -3 and degree overflow


@pytest.mark.parametrize("n, k", [(0, 2), (-1, 2)])
def test_bad_n_raises_codec_error(n, k):
    with pytest.raises(CodecError):
        encode_powersum_message(n, k, 1, frozenset())


@pytest.mark.parametrize("k", [0, -1])
def test_bad_k_raises_graph_error(k):
    with pytest.raises(GraphError):
        encode_powersum_message(8, k, 1, frozenset({2}))
