"""Power-sum neighbourhood encoding and decoding (Algorithm 3, Theorem 4, Lemma 3).

**Encoding (Algorithm 3).**  A node ``x`` with neighbourhood ``N`` sends the
``k+2``-tuple ``(ID(x), deg(x), b_1, ..., b_k)`` where
``b_p = Σ_{w∈N} ID(w)^p``.  The paper phrases this as ``b = A(k,n) · x̄``
with ``A`` the Vandermonde-like matrix ``A[p][i] = i^p`` and ``x̄`` the
0/1 incidence vector of ``N`` — the explicit sums below compute exactly that
product.  Serialized fixed-width, ``b_p <= n^{p+1}`` takes ``(p+1)·w`` bits
with ``w = ceil(log2(n+1))``, so the message costs ``O(k² log n)`` bits
(Lemma 2).  :func:`encode_powersum_message` packs the ``k+2`` fields into
one integer with fixed shifts (widths ``w, w, 2w, ..., (k+1)w``, MSB
first), the layout the decoder slices back out at fixed offsets.

**Decoding (Theorem 4 / Corollary 1).**  Wright's theorem: equal power sums
``p = 1..k`` force equal multisets, so for ``deg(x) = d <= k`` the first
``d`` power sums determine ``N`` uniquely.  The referee first unpacks
every message with :func:`decode_powersum_messages`: the widths derive from
``(n, k)`` once per batch, each message gets one exact-length check, and
the fields are sliced out of its payload at fixed offsets from the low end.
Two decoders then recover neighbourhoods from the sums:

* :func:`decode_neighborhood_newton` — closed forms for ``d <= 3``: at
  ``d = 3`` (and ``n <= 2^26``) a trigonometric cubic solve in floats,
  whose rounded roots count only if they give ``p_1..p_3`` exactly in
  ints.  Otherwise Newton's identities convert power sums to elementary
  symmetric polynomials (exact integer arithmetic), and the neighbours are
  the integer roots of the resulting monic polynomial: closed forms for
  ``d <= 2``, integer Newton iteration from above plus deflation beyond,
  ``O(d² log n)`` big-int operations per root (a scan of ``1..n`` only
  when the fast path fails, to name the error);
* :class:`PowerSumLookupTable` — Lemma 3's preprocessing: enumerate all
  ``<= k``-subsets of ``1..n`` and index them by their power-sum vector;
  one dictionary probe per decode (``O(n^k)`` space, so guarded).

Both decoders raise :class:`~repro.errors.DecodeError` on corrupt input
rather than guessing.
"""

from __future__ import annotations

import math
from itertools import combinations

from repro.bits.sizing import id_width
from repro.errors import CodecError, DecodeError, GraphError
from repro.model.message import Message

__all__ = [
    "compute_power_sums",
    "encode_powersum_message",
    "decode_powersum_messages",
    "powersum_message_bits",
    "newton_identities",
    "integer_roots_of_monic",
    "decode_neighborhood_newton",
    "PowerSumLookupTable",
]


def compute_power_sums(neighborhood: frozenset[int] | set[int], k: int) -> tuple[int, ...]:
    """``(b_1, ..., b_k)`` with ``b_p = Σ_{w∈N} w^p`` — the product ``A(k,n)·x̄``."""
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    sums = [0] * k
    for w in neighborhood:
        acc = 1
        for p in range(k):
            acc *= w
            sums[p] += acc
    return tuple(sums)


def powersum_message_bits(n: int, k: int) -> int:
    """Exact serialized size of an Algorithm-3 message: ``(2 + Σ_{p=1..k}(p+1))·w``.

    ``= (2 + k(k+3)/2) · ceil(log2(n+1))`` bits — the concrete form of
    Lemma 2's ``O(k² log n)``.
    """
    w = id_width(n)
    return (2 + sum(p + 1 for p in range(1, k + 1))) * w


def encode_powersum_message(n: int, k: int, i: int, neighborhood: frozenset[int]) -> Message:
    """Serialize Algorithm 3's tuple for node ``i``; all widths derive from ``(n, k)``.

    The fields ``i, deg, b_1..b_k`` (widths ``w, w, 2w, ..., (k+1)w``) fold
    MSB first into one int, each shifted in by its fixed width: the exact
    layout :func:`decode_powersum_messages` slices back out.  The sums are
    computed inline, as :func:`compute_power_sums` does.  A field that is
    negative or too wide for its width raises
    :class:`~repro.errors.CodecError`, as ``BitWriter.write_bits`` would.
    """
    w = id_width(n)
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    sums = [0] * k
    for x in neighborhood:
        xp = 1
        for p in range(k):
            xp *= x
            sums[p] += xp
    degree = len(neighborhood)
    if i < 0 or i >> w:
        raise CodecError(f"vertex ID {i} does not fit in {w} bits")
    if degree >> w:
        raise CodecError(f"degree {degree} does not fit in {w} bits")
    acc = (i << w) | degree
    nbits = width = 2 * w
    for b in sums:  # b_p is (p+1)·w bits wide
        if b < 0 or b >> width:
            raise CodecError(f"power sum {b} does not fit in {width} bits")
        acc = (acc << width) | b
        nbits += width
        width += w
    return Message(acc, nbits)


def _sum_fields(w: int, k: int, top: int) -> list[tuple[int, int]]:
    """``(shift, mask)`` of ``b_1..b_k`` written MSB first below bit ``top``.

    ``b_p`` is ``(p+1)·w`` bits wide, so the last sum ends at bit
    ``top - Σ_p (p+1)·w``.
    """
    fields = []
    for p in range(1, k + 1):
        top -= (p + 1) * w
        fields.append((top, (1 << (p + 1) * w) - 1))
    return fields


def decode_powersum_messages(
    n: int, k: int, messages: list[Message]
) -> list[tuple[int, int, list[int]]]:
    """Parse a batch of Algorithm-3 messages into ``(vertex, degree, sums)``.

    Strict framing: a message of any length but
    :func:`powersum_message_bits` raises :class:`DecodeError`, as does a
    vertex ID outside ``1..n`` or a degree above ``n - 1``.  The power sums
    come back as fresh lists, which Algorithm 4's pruning loop consumes.
    """
    if not messages:
        return []
    if n < 1:
        raise DecodeError(f"{len(messages)} messages for a graph on {n} vertices")
    w = id_width(n)
    nbits = powersum_message_bits(n, k)
    # offsets from the low end: b_k is the last field written
    vertex_shift = nbits - w
    degree_shift = vertex_shift - w
    id_mask = (1 << w) - 1
    fields = _sum_fields(w, k, degree_shift)
    records = []
    for msg in messages:
        if msg.bits != nbits:
            raise DecodeError(
                f"malformed power-sum message: {msg.bits} bits, expected {nbits}"
            )
        acc = msg.acc
        vertex = acc >> vertex_shift
        if not 1 <= vertex <= n:
            raise DecodeError(f"decoded vertex ID {vertex} outside 1..{n}")
        degree = (acc >> degree_shift) & id_mask
        if degree > n - 1:
            raise DecodeError(f"decoded degree {degree} exceeds n-1 = {n - 1}")
        records.append((vertex, degree, [(acc >> s) & m for s, m in fields]))
    return records


def newton_identities(power_sums: tuple[int, ...] | list[int]) -> list[int]:
    """Elementary symmetric polynomials ``e_1..e_d`` from power sums ``p_1..p_d``.

    Newton: ``m·e_m = Σ_{i=1}^{m} (-1)^{i-1} e_{m-i} p_i``.  Over integers
    the division by ``m`` must be exact; a remainder means the power sums
    are not the power sums of *any* multiset of integers, so we raise.
    """
    d = len(power_sums)
    e = [1] + [0] * d
    for m in range(1, d + 1):
        acc = 0
        sign = 1
        for i in range(1, m + 1):
            acc += sign * e[m - i] * power_sums[i - 1]
            sign = -sign
        q, rem = divmod(acc, m)
        if rem:
            raise DecodeError(f"power sums are inconsistent: e_{m} is not an integer")
        e[m] = q
    return e[1:]


def integer_roots_of_monic(elementary: list[int], n: int) -> list[int]:
    """All roots in ``1..n`` of ``x^d - e_1 x^{d-1} + e_2 x^{d-2} - ...``, ascending.

    The polynomial whose roots are the neighbours; Corollary 1 guarantees
    the genuine decode has exactly ``d`` distinct roots in ``1..n``.  They
    are found without scanning ``1..n``:

    * ``d = 1``: the root is ``e_1``;
    * ``d = 2``: ``(e_1 ± r) / 2`` with ``r = isqrt(e_1² - 4 e_2)``;
    * ``d >= 3``: integer Newton iteration from above Samuelson's bound on
      the largest root, then synthetic division by it, down to ``d = 2``.

    The referee's degree-3 decodes get here only when
    :func:`decode_neighborhood_newton`'s closed form misses (corrupt sums,
    or ``n > 2^26``).

    Each Newton run takes at most ``d·log2(n) + 1`` steps of ``O(d)``
    big-int work, so a genuine decode costs ``O(d³ log n)`` operations
    (``O(1)`` for ``d <= 2``).  Any miss — a non-real, non-integer,
    repeated or out-of-range root — falls back to the ascending Horner scan
    of ``1..n`` (``O(n·d)``), which names the error.
    """
    coeffs = [1] + [(-1) ** (idx + 1) * e for idx, e in enumerate(elementary)]
    roots = _newton_roots(coeffs, n)
    if roots is None:
        return _scan_roots(coeffs, n)
    return sorted(roots)


def _newton_roots(coeffs: list[int], n: int) -> list[int] | None:
    """The ``d`` distinct roots in ``1..n`` of the monic ``coeffs``, or None."""
    d = len(coeffs) - 1
    roots: list[int] = []
    while len(coeffs) > 3:
        x = _largest_integer_root(coeffs, n)
        if x is None:
            return None
        roots.append(x)
        coeffs = _deflate(coeffs, x)
    if len(coeffs) == 3:
        e1, e2 = -coeffs[1], coeffs[2]
        disc = e1 * e1 - 4 * e2
        if disc <= 0:
            return None
        r = math.isqrt(disc)
        if r * r != disc:  # r² ≡ e_1² (mod 4), so e_1 ± r is always even
            return None
        roots += ((e1 - r) // 2, (e1 + r) // 2)
    elif len(coeffs) == 2:
        roots.append(-coeffs[1])
    if len(set(roots)) < d or any(not 1 <= x <= n for x in roots):
        return None
    return roots


def _largest_integer_root(coeffs: list[int], n: int) -> int | None:
    """Integer Newton iteration from above; the largest root if it is an integer.

    Samuelson's inequality bounds every real root by ``(e_1 + sqrt((d-1)
    (d·p_2 - e_1²))) / d``; start strictly above it (capped at ``n``).  Above
    the largest root P is positive, increasing and convex, so the step
    ``x -= ceil(P(x)/P'(x))`` never passes an integer largest root and
    shrinks the distance to it by at least ``1/d`` of itself.  None when an
    invariant breaks (roots not all real, P(x) < 0, step cap reached).
    """
    d = len(coeffs) - 1
    e1, e2 = -coeffs[1], coeffs[2]
    spread = (d - 1) * (d * (e1 * e1 - 2 * e2) - e1 * e1)
    if spread < 0:
        return None
    x = min(n, (e1 + math.isqrt(spread) + d) // d + 1)
    for _ in range(d * n.bit_length() + 2):
        p = dp = 0
        for c in coeffs:
            dp = dp * x + p
            p = p * x + c
        if p == 0:
            return x
        if p < 0 or dp <= 0:
            return None
        x += -p // dp  # x - ceil(p / dp)
    return None


def _deflate(coeffs: list[int], root: int) -> list[int]:
    """Synthetic division of ``coeffs`` by ``(x - root)``; the remainder is 0."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out


def _scan_roots(coeffs: list[int], n: int) -> list[int]:
    """The ascending Horner scan of ``1..n``; only failed fast decodes get here."""
    d = len(coeffs) - 1
    roots: list[int] = []
    candidate = 1
    while len(roots) < d and candidate <= n:
        acc = 0
        for c in coeffs:
            acc = acc * candidate + c
        if acc == 0:
            roots.append(candidate)
            coeffs = _deflate(coeffs, candidate)
            # distinct roots (a neighbourhood is a set): advance
        candidate += 1
    if len(roots) < d:
        raise DecodeError(
            f"polynomial of degree {d} has only {len(roots)} integer roots in 1..{n}"
        )
    return roots


#: Two adjacent roots come out of the trigonometric solve within about
#: ``n·2^-26`` (the square root of a double's ``2^-52``), so beyond this the
#: float estimate can round to the wrong integer and Newton is the decoder.
_CUBIC_MAX_N = 1 << 26
_TWO_PI_3 = 2 * math.pi / 3


def decode_neighborhood_newton(
    degree: int, power_sums: tuple[int, ...] | list[int], n: int
) -> frozenset[int]:
    """Recover ``N(x)`` from the first ``degree`` power sums (Theorem 4 route).

    Requires ``degree <= len(power_sums)`` — i.e. the vertex is currently
    prunable (degree at most k).  Degree 3 is first solved in closed form
    when ``n <= 2^26`` (:func:`_cubic_roots`: a trigonometric cubic solve in
    floats, accepted only if it reproduces ``p_1..p_3`` exactly in ints).
    By Wright's theorem no other set has these sums, so the result is the
    one the Newton route returns, a frozenset built in ascending order as
    there; any miss takes that route, which names the error.
    """
    if degree == 0:
        return frozenset()
    if degree < 0:
        raise DecodeError(f"cannot decode negative degree {degree}")
    if degree > len(power_sums):
        raise DecodeError(
            f"cannot decode degree {degree} from only {len(power_sums)} power sums"
        )
    if degree == 3 and n <= _CUBIC_MAX_N:
        result = _cubic_roots(power_sums[0], power_sums[1], power_sums[2], n)
        if result is not None:
            return result
    e = newton_identities(list(power_sums[:degree]))
    roots = integer_roots_of_monic(e, n)
    result = frozenset(roots)
    if len(result) != degree:
        raise DecodeError("decoded neighbourhood has repeated vertices")
    return result


def _cubic_roots(p1: int, p2: int, p3: int, n: int) -> frozenset[int] | None:
    """The three distinct IDs in ``1..n`` with power sums ``p1..p3``, or None.

    ``y = 3x - p1`` turns the cubic into ``y³ - (3a/2)·y - b/3`` with
    ``a = 3p2 - p1² = Σy²/3`` and ``b = 27p3 - 27p1p2 + 6p1³ = Σy³``.  Three
    distinct real roots need ``a > 0``, and then ``y = 2r·cos(θ/3 - 2πj/3)``
    with ``r² = a/2`` and ``cos θ = b / (6r³)``.  Floats only estimate the
    largest and smallest root; the middle one is ``p1`` minus both, and ints
    check all three against the sums.
    """
    a = 3 * p2 - p1 * p1
    if a <= 0:
        return None
    try:
        r = math.sqrt(a / 2)
        c = (27 * p3 - 27 * p1 * p2 + 6 * p1 * p1 * p1) / (6 * r * r * r)
        if not -1.0 <= c <= 1.0:
            return None
        t = math.acos(c) / 3
        hi = round((p1 + 2 * r * math.cos(t)) / 3)
        lo = round((p1 + 2 * r * math.cos(t + _TWO_PI_3)) / 3)
    except OverflowError:  # a sum too large for a double
        return None
    mid = p1 - lo - hi
    if (
        1 <= lo < mid < hi <= n
        and lo * lo + mid * mid + hi * hi == p2
        and lo * lo * lo + mid * mid * mid + hi * hi * hi == p3
    ):
        return frozenset((lo, mid, hi))
    return None


class PowerSumLookupTable:
    """Lemma 3's table: power-sum vector -> neighbourhood, for all ``<= k``-subsets.

    Size ``Σ_{d<=k} C(n,d) = O(n^k)`` entries; construction is guarded by
    ``max_entries``.  The paper sorts the table and binary-searches in
    ``O(k log n)``; a Python dict probe is the moral equivalent (and is
    what gives the paper's Algorithm 4 its ``O(n²)`` total decode).  The
    referee here decodes with the Newton route; ``repro experiment
    EXP-L3`` times this table against it.
    """

    def __init__(self, n: int, k: int, *, max_entries: int = 5_000_000) -> None:
        if k < 1:
            raise GraphError(f"k must be >= 1, got {k}")
        total = sum(math.comb(n, d) for d in range(k + 1))
        if total > max_entries:
            raise GraphError(
                f"lookup table for n={n}, k={k} needs {total} entries "
                f"(> max_entries={max_entries}); use the Newton decoder"
            )
        self.n = n
        self.k = k
        self._table: dict[tuple[int, ...], frozenset[int]] = {}
        for d in range(k + 1):
            for subset in combinations(range(1, n + 1), d):
                key = compute_power_sums(frozenset(subset), k)
                self._table[key] = frozenset(subset)

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, power_sums: tuple[int, ...]) -> frozenset[int]:
        """Neighbourhood with these k power sums; raises DecodeError if absent."""
        try:
            return self._table[tuple(power_sums)]
        except KeyError:
            raise DecodeError(
                "power-sum vector not in lookup table (degree > k or corrupt message)"
            ) from None

