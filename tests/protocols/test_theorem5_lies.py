"""Algorithm 4 at k = 3 against every one-vertex lie on at most five vertices.

For each labelled graph with ``n <= 5`` and degeneracy at most 3, each
vertex ``i`` in turn replaces its message with the honest Algorithm-3
message of another neighbourhood ``S ⊆ V∖{i}``, ``S ≠ N(i)``, and the
referee runs :func:`prune_decode` on the result.  Each lie's outcome is its
decoded edge set, or the exception type and text, so the worklist order and
every error message are part of it.  ``DIGESTS`` pins one sha256 per ``n``
over the sorted outcomes: a decoder optimisation must leave them all as they
are.  At ``n = 5`` (76,725 lies, ≈3 s) the referee makes 35,255 degree-3
decodes.
"""

import hashlib
from itertools import combinations

import pytest

from repro.graphs import degeneracy
from repro.graphs.counting import enumerate_labeled_graphs
from repro.protocols.degeneracy_reconstruction import prune_decode
from repro.protocols.powersum import decode_powersum_messages, encode_powersum_message

K = 3

#: ``n -> (lies told, sha256 of the sorted outcomes)``.
DIGESTS = {
    0: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    1: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    2: (4, "fe5dff96ded61f9951151f0119626ae8616534af804bed042664cbe14dfc9abf"),
    3: (72, "4baead7bce50970c7e297cd948e23e1a14ec9fa8b9f5554fbeb0a7fc4c2dcf3d"),
    4: (1792, "c74f24c5429d53a80f23fb9191d19c1b218735e54dde613f74f925849a4e49ab"),
    5: (76725, "0ae9ecb2f78181edb5dcbde88ac31feb345539dbaf713bd2231f9fdd638a46e2"),
}


def outcomes(n: int) -> list[str]:
    """The outcome of every one-vertex lie on every graph on ``n`` vertices."""
    out = []
    for g in enumerate_labeled_graphs(n):
        if degeneracy(g) > K:
            continue
        honest = [encode_powersum_message(n, K, i, g.neighbors(i)) for i in g.vertices()]
        for i in g.vertices():
            others = [v for v in g.vertices() if v != i]
            for size in range(len(others) + 1):
                for lie in combinations(others, size):
                    if frozenset(lie) == g.neighbors(i):
                        continue
                    messages = list(honest)
                    messages[i - 1] = encode_powersum_message(n, K, i, frozenset(lie))
                    try:
                        h = prune_decode(n, K, decode_powersum_messages(n, K, messages))
                        result = repr(sorted(h.edges()))
                    except Exception as exc:  # the type and text are the outcome
                        result = f"{type(exc).__name__}: {exc}"
                    out.append(f"{sorted(g.edges())} {i} {lie} -> {result}")
    return out


def check_lies(n: int) -> tuple[int, str]:
    """Tell every lie on ``n`` vertices; assert the count and digest in ``DIGESTS``."""
    lines = outcomes(n)
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    assert (len(lines), digest) == DIGESTS[n]
    return len(lines), digest


@pytest.mark.parametrize("n", range(6))
def test_one_vertex_lies_keep_their_outcomes(n):
    check_lies(n)
