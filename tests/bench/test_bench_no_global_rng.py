"""RNG hygiene: the bench harness never touches the global ``random`` state.

Mirror of ``tests/engine/test_no_global_rng.py`` for the measurement layer:
benchmark inputs come from splitmix64 chains and campaign cases run the
(already-hygienic) engine, so a full suite run must leave the global
sequence exactly where it found it — timing a system must not perturb it.
"""

import random

from repro.bench import run_suite

SENTINEL_SEED = 999
DRAWS = 8


def _expected_sequence():
    random.seed(SENTINEL_SEED)
    expected = [random.random() for _ in range(DRAWS)]
    random.seed(SENTINEL_SEED)  # rewind so the bench work starts from here
    return expected


def _assert_untouched(expected):
    assert [random.random() for _ in range(DRAWS)] == expected, \
        "global random state was consumed or reseeded"


def test_micro_benchmarks_leave_global_rng_alone():
    expected = _expected_sequence()
    run_suite(["l0-update", "l0-update-naive", "bits-pack"],
              scale=0.1, repeats=1)
    _assert_untouched(expected)


def test_campaign_benchmarks_leave_global_rng_alone():
    expected = _expected_sequence()
    run_suite(["session-forest", "session-sketch", "sketch-connectivity"],
              scale=0.25, repeats=1)
    _assert_untouched(expected)


def test_suite_results_identical_despite_global_seed_noise():
    """Reseeding the global RNG must not change any deterministic field."""
    random.seed(1)
    a = run_suite(["l0-update", "session-sketch"], scale=0.2, repeats=1)
    random.seed(2)
    b = run_suite(["l0-update", "session-sketch"], scale=0.2, repeats=1)
    for name in a["results"]:
        for key in ("ops", "bits", "digest"):
            assert a["results"][name][key] == b["results"][name][key]
