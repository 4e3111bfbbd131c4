"""The statistical gate shared by the randomized sketch protocols' tests.

Each AGM protocol documents a per-run failure probability of at most
:data:`MAX_FAILURE_RATE`.  A test runs it over :data:`SEEDS` public seeds
and requires the exact one-sided :data:`CONFIDENCE` Clopper–Pearson upper
bound on the observed failure rate to stay within that figure.
"""

import math

MAX_FAILURE_RATE = 0.05
CONFIDENCE = 0.99
SEEDS = 160


def clopper_pearson_upper(failures, trials, *, confidence):
    """Exact one-sided upper confidence bound on a binomial failure rate.

    The bound is the rate ``p`` at which seeing at most ``failures`` in
    ``trials`` has probability ``1 - confidence``; the binomial CDF falls
    as ``p`` grows, so bisection finds it.
    """
    def cdf(p):
        return sum(math.comb(trials, i) * p**i * (1 - p) ** (trials - i)
                   for i in range(failures + 1))

    lo, hi = failures / trials, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if cdf(mid) > 1 - confidence:
            lo = mid
        else:
            hi = mid
    return hi


def within_documented_rate(failures, trials=SEEDS):
    """True iff ``failures`` in ``trials`` runs pass the gate."""
    return clopper_pearson_upper(failures, trials, confidence=CONFIDENCE) <= MAX_FAILURE_RATE
