"""The AGM wire format and Borůvka round shared by every sketch protocol.

**Wire format.**  A *bank* is ``rounds`` independent L0 samplers of one
signed edge-incidence vector over the edge slots of a ``size``-vertex
graph.  :func:`derive_bank` derives it from the public seed and caches
it, since every node's local call and the referee's decode ask for the
same banks.  A sampler is ``levels`` one-sparse sketches, and a sketch
is one fixed-width *slot* of three fields: ``zigzag(c0)`` in ``w0``
bits, ``zigzag(c1)`` in ``w1`` bits and ``c2`` in 61 bits.  A node's
message is its banks back to back, each bank round after round, each
round level after level.

**Flat counters.**  No sketch objects are built on either side.  The
encoder accumulates a round's ``c0/c1/c2`` counters in three flat
``levels``-long lists, applying each update only to the levels its hash
survives to, and packs each level as one slot.  Only levels up to the
deepest one any update reached can be non-zero, so the all-zero tail is
shifted in in one step.  :class:`~repro.sketching.l0sampler.L0Sampler`
is the reference twin the parity suite checks both sides against.

**Totality.**  Every field has a fixed width, so a message parses iff it
is exactly ``Σ rounds·levels·(w0+w1+61)`` bits long over its banks.  That
length is checked once, up front, and a wrong length is a
:class:`~repro.errors.DecodeError`; every bitstring of the right length
decodes, so nothing after the check can fail on malformed input.

**Lazy reads.**  Round ``r`` of a bank sits at a computed bit offset and
is read only when Borůvka reaches it; rounds it never reaches are never
parsed.  Within a round, the trailing all-zero slots are counted from the
block's trailing zero bits and skipped, and each remaining slot is one
``read_bits`` split by shift and mask.  A protocol with several banks
(bipartiteness: G, DC, DC′) just points each vertex at its bank's offset.

**Fixed-base powers.**  Every fingerprint term is ``z^e mod p`` for one
round's fixed base ``z`` and an exponent ``e = index + 1`` in ``1..m``.
Each bank therefore holds one power table per round, ``(k, lo, hi)``
with ``k = ⌈bitlen(m)/2⌉``, ``lo[j] = z^j`` for ``j < 2^k`` and
``hi[j] = z^(j·2^k)`` for ``j ≤ m >> k``, so that
``z^e = lo[e & (2^k−1)] · hi[e >> k] mod p`` costs two reads and one
multiply (Brickell–Gordon–McCurley–Wilson, "Fast exponentiation with
precomputation", EUROCRYPT '92).  The tables are built by repeated
multiplication when the bank is made, about ``2^k + m/2^k ≈ 2√m``
entries a round, and :func:`derive_bank` caches them with the bank.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from repro.bits.reader import BitReader
from repro.errors import CodecError, DecodeError
from repro.graphs.unionfind import UnionFind
from repro.model.message import Message
from repro.sketching.field import MERSENNE61
from repro.sketching.l0sampler import L0SamplerParams

__all__ = ["Bank", "derive_bank", "encode", "bank_offsets", "boruvka", "boruvka_round",
           "edge_index", "edge_pair", "incidence_updates"]


def edge_index(n: int, u: int, v: int) -> int:
    """Rank of edge ``{u, v}`` (u < v) in lexicographic order over C(n,2) slots."""
    if not 1 <= u < v <= n:
        raise ValueError(f"need 1 <= u < v <= n, got ({u}, {v})")
    # edges (1,2)..(1,n), (2,3)..(2,n), ...: (u-1)n - u(u-1)/2 edges precede row u
    return (u - 1) * n - u * (u - 1) // 2 + v - u - 1


def edge_pair(n: int, index: int) -> tuple[int, int]:
    """Inverse of :func:`edge_index`, in closed form."""
    if index < 0 or index >= n * (n - 1) // 2:
        raise ValueError(f"edge index {index} out of range for n={n}")
    # count slots from the last edge back: rows n-1, n-2, .. hold 1, 2, .. of
    # them, so row u is the one where the t(t+1)/2 triangle passes the count
    back = n * (n - 1) // 2 - 1 - index
    t = (math.isqrt(8 * back + 1) - 1) // 2  # largest t with t(t+1)/2 <= back
    u = n - 1 - t
    return u, index - ((u - 1) * n - u * (u - 1) // 2) + u + 1


def incidence_updates(
    n: int, i: int, neighborhood: Iterable[int]
) -> list[tuple[int, int]]:
    """Node ``i``'s signed edge-incidence stream: ``(edge_index, ±1)`` pairs."""
    return [
        (edge_index(n, i, w), +1) if i < w else (edge_index(n, w, i), -1)
        for w in neighborhood
    ]


def _zigzag(x: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    return x << 1 if x >= 0 else ((-x) << 1) - 1


def _unzigzag(u: int) -> int:
    """Inverse of :func:`_zigzag`."""
    return (u >> 1) if (u & 1) == 0 else -((u + 1) >> 1)


Powers = tuple[int, tuple[int, ...], tuple[int, ...]]


def _power_table(z: int, m: int) -> Powers:
    """``(k, lo, hi)`` such that ``z^e ≡ lo[e & (2^k−1)] · hi[e >> k]`` for ``e ≤ m``."""
    k = (m.bit_length() + 1) // 2
    lo = [1] * (1 << k)
    for j in range(1, 1 << k):
        lo[j] = lo[j - 1] * z % MERSENNE61
    step = lo[-1] * z % MERSENNE61  # z^(2^k)
    hi = [1] * ((m >> k) + 1)
    for j in range(1, len(hi)):
        hi[j] = hi[j - 1] * step % MERSENNE61
    return k, tuple(lo), tuple(hi)


@dataclass(frozen=True)
class Bank:
    """One sampler per Borůvka round over the edge slots of ``1..size``.

    ``powers[r]`` is round ``r``'s fingerprint power table.  It is derived
    from ``params`` when not given, and it takes no part in equality,
    hashing or ``repr``.
    """

    size: int
    params: tuple[L0SamplerParams, ...]
    powers: tuple[Powers, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.powers:
            object.__setattr__(
                self, "powers", tuple(_power_table(p.z, p.m) for p in self.params))

    @property
    def widths(self) -> tuple[int, int]:
        """Fixed widths of the ``(zigzag c0, zigzag c1)`` fields.

        ``m``, the edge-slot count, is the same in every round.
        """
        m = self.params[0].m if self.params else 1
        return (2 * self.size).bit_length(), (2 * self.size * m).bit_length()

    @property
    def bits(self) -> int:
        """The bank's length on the wire."""
        w0, w1 = self.widths
        return sum(params.levels for params in self.params) * (w0 + w1 + 61)


@lru_cache(maxsize=1 << 12)
def derive_bank(size: int, seed: int, n: int, rounds: int, *suffix: int) -> Bank:
    """``rounds`` samplers over the edge slots of ``1..size``, derived from ``seed``.

    Round ``r``'s parameters are bound to the tags ``(n, r, *suffix)``.
    """
    m = max(1, size * (size - 1) // 2)
    return Bank(size, tuple(L0SamplerParams.derive(m, seed, n, r, *suffix)
                            for r in range(rounds)))


def encode(streams: Iterable[tuple[Bank, list[tuple[int, int]]]]) -> Message:
    """Sketch each ``(bank, incidence updates)`` pair and pack them all in order.

    Counter-identical to feeding the updates to one
    :class:`~repro.sketching.l0sampler.L0Sampler` per round and packing its
    ``counters()``; the parity suite pins this.
    """
    acc = nbits = 0
    for bank, updates in streams:
        w0, w1 = bank.widths
        slot = w0 + w1 + 61
        for params, (k, lo, hi) in zip(bank.params, bank.powers):
            m, levels, alpha, beta = params.m, params.levels, params.alpha, params.beta
            mask = (1 << k) - 1
            last = levels - 1
            # counters by the deepest level an update survives to; level l
            # sums buckets l..last, since an update reaches every level up to
            # its deepest (c2 terms z^(index+1)·delta are reduced mod p once,
            # at packing)
            b0 = [0] * levels
            b1 = [0] * levels
            b2 = [0] * levels
            top = -1  # the deepest level any update reached
            for index, delta in updates:
                if not 0 <= index < m:
                    raise ValueError(f"index {index} outside 0..{m - 1}")
                h = (alpha * index + beta) % MERSENNE61
                deepest = (h & -h).bit_length() - 1  # trailing zeros of h; -1 iff h == 0
                if deepest < 0 or deepest > last:
                    deepest = last
                if deepest > top:
                    top = deepest
                b0[deepest] += delta
                b1[deepest] += index * delta
                e = index + 1
                b2[deepest] += delta * lo[e & mask] * hi[e >> k]
            # pack levels top..0 upwards from the all-zero tail
            block = 0
            shift = (last - top) * slot
            c0 = c1 = c2 = 0
            for level in range(top, -1, -1):
                c0 += b0[level]
                c1 += b1[level]
                c2 += b2[level]
                u0 = _zigzag(c0)
                u1 = _zigzag(c1)
                if u0 >> w0 or u1 >> w1:
                    value, width = (u0, w0) if u0 >> w0 else (u1, w1)
                    raise CodecError(f"value {value} does not fit in {width} bits")
                block |= ((u0 << w1 + 61) | (u1 << 61) | c2 % MERSENNE61) << shift
                shift += slot
            acc = (acc << levels * slot) | block
            nbits += levels * slot
    return Message(acc, nbits)


def bank_offsets(messages: Sequence[Message], banks: Sequence[Bank]) -> list[int]:
    """Length-check every message against ``banks``; return each bank's bit offset."""
    offsets = []
    total = 0
    for bank in banks:
        offsets.append(total)
        total += bank.bits
    for v, msg in enumerate(messages, start=1):
        if msg.bits != total:
            raise DecodeError(
                f"malformed sketch message: node {v} sent {msg.bits} bits, expected {total}"
            )
    return offsets


def boruvka_round(
    uf: UnionFind, bank: Bank, r: int, sources: Sequence[tuple[Message, int]]
) -> tuple[list[tuple[int, int]], int]:
    """One Borůvka phase on round ``r`` of ``bank``.

    ``sources[v-1]`` is the length-checked message holding vertex ``v``'s
    sketch and the bit offset of its bank.  Each component's round-``r``
    counters are summed (``c2`` mod p, as merged one-sparse sketches are),
    and one outgoing edge is sampled per component by the L0 sampler's
    rule: the first one-sparse level wins, all-zero levels mean an isolated
    component, and anything else is a sampler failure.  The components are
    then united.  Returns the new forest edges and the sampler failures.
    """
    w0, w1 = bank.widths
    params = bank.params[r]
    m, levels = params.m, params.levels  # levels: the same in every round
    k, lo, hi = bank.powers[r]
    mask = (1 << k) - 1
    slot = w0 + w1 + 61
    chunk = levels * slot
    block_mask = (1 << chunk) - 1
    c1_mask = (1 << w1) - 1
    c2_mask = (1 << 61) - 1
    # root -> [vertices, levels read, c0 sums, c1 sums, c2 sums], in first-seen order
    agg: dict[int, list] = {}
    for v, (msg, offset) in enumerate(sources, start=1):
        block = (msg.acc >> (msg.bits - offset - (r + 1) * chunk)) & block_mask
        root = uf.find(v)
        sums = agg.get(root)
        if sums is None:
            sums = agg[root] = [0, 0, [0] * levels, [0] * levels, [0] * levels]
        sums[0] += 1
        if not block:
            continue
        filled = levels - ((block & -block).bit_length() - 1) // slot
        if filled > sums[1]:
            sums[1] = filled
        _, _, s0, s1, s2 = sums
        reader = BitReader(block >> (levels - filled) * slot, filled * slot)
        for level in range(filled):
            field = reader.read_bits(slot)
            s0[level] += _unzigzag(field >> w1 + 61)
            s1[level] += _unzigzag((field >> 61) & c1_mask)
            s2[level] += field & c2_mask
    edges: list[tuple[int, int]] = []
    failures = 0
    for vertices, filled, s0, s1, s2 in agg.values():
        hit = None
        all_zero = True
        for level in range(filled):  # every level past ``filled`` is all-zero
            c0, c1, c2 = s0[level], s1[level], s2[level]
            if vertices > 1:
                c2 %= MERSENNE61  # a lone vertex's c2 is recovered as sent
            if c0 == 0 and c1 == 0 and c2 == 0:
                continue
            if c0 != 0 and c1 % c0 == 0 and 0 <= c1 // c0 < m:
                index = c1 // c0
                e = index + 1
                if c2 == c0 * lo[e & mask] * hi[e >> k] % MERSENNE61:
                    hit = index
                    break
            all_zero = False
        if hit is None:
            if not all_zero:
                failures += 1
            continue  # a failed sampler, or a genuinely isolated component
        u, v = edge_pair(bank.size, hit)
        if uf.union(u, v):
            edges.append((u, v) if u < v else (v, u))
    return edges, failures


def boruvka(
    bank: Bank, sources: Sequence[tuple[Message, int]]
) -> tuple[list[tuple[int, int]], int, int]:
    """Borůvka over every round of ``bank``: ``(forest, rounds_used, failures)``.

    Stops at one component, or after a round with neither a merge nor a
    sampler failure (every component is then, whp, isolated).
    """
    uf = UnionFind(bank.size)
    forest: list[tuple[int, int]] = []
    failures = rounds_used = 0
    for r in range(len(bank.params)):
        if len(forest) == bank.size - 1:
            break
        rounds_used = r + 1
        edges, failed = boruvka_round(uf, bank, r, sources)
        forest += edges
        failures += failed
        if not edges and not failed:
            break
    return forest, rounds_used, failures
