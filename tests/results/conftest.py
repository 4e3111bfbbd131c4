"""Shared factories for schema-valid synthetic campaign records."""

import random

import pytest

from repro.results.records import validate_record


def _make_record(*, protocol="forest", family="random_forest", n=16, seed=0,
                 status="ok", exact=True, max_bits=20, total_bits=320,
                 k=None, faults=None, dropped=0, wall=0.01,
                 digest="d", scenario="s") -> dict:
    protocol_params = {} if k is None else {"k": k}
    record = {
        "spec_version": 2,
        "spec": {
            "scenario": scenario, "family": family, "n": n, "seed": seed,
            "protocol": protocol, "family_params": {},
            "protocol_params": protocol_params, "budget_bits": None,
            "shuffle_delivery": False, "faults": faults,
        },
        "result": {
            "status": status, "output_kind": "graph", "output_digest": digest,
            "exact": exact, "graph_n": n, "graph_m": n - 1,
            "max_message_bits": max_bits, "total_message_bits": total_bits,
            "faults": {"dropped": dropped, "duplicated": 0, "flipped": 0},
            "error": "",
        },
        "timing": {"wall_seconds": wall},
        "cached": False,
    }
    return validate_record(record)


def _random_record(rng: random.Random) -> dict:
    """One schema-valid record with randomized axes and measurements."""
    faults = None
    if rng.random() < 0.3:
        # Mix int and float fault rates, whose JSON spellings differ.
        faults = {
            "drop": rng.choice([0, 0.1, 0.25]),
            "duplicate": rng.choice([0, 1, 0.5]),
            "flip": rng.choice([0.0, 0.05]),
            "seed": rng.randrange(1 << 16),
        }
    return _make_record(
        protocol=rng.choice(["forest", "spanning_tree", "degeneracy"]),
        family=rng.choice(["random_forest", "path", "star"]),
        n=rng.choice([4, 16, 64, 256]),
        seed=rng.randrange(8),
        status=rng.choice(["ok", "ok", "ok", "violation", "error"]),
        exact=rng.choice([True, False, None]),
        max_bits=rng.randrange(0, 5000),
        total_bits=rng.randrange(0, 100_000),
        k=rng.choice([None, 1, 2, 5]),
        faults=faults,
        dropped=rng.randrange(3),
        wall=rng.choice([0.0, 0.001, 0.5, 1e-9, 3.25]),
        digest=f"{rng.randrange(1 << 32):08x}",
        scenario=rng.choice(["s", "sweep", "faulty"]),
    )


@pytest.fixture()
def make_record():
    return _make_record


@pytest.fixture()
def random_records():
    def build(seed: int, count: int) -> list[dict]:
        rng = random.Random(seed)
        return [_random_record(rng) for _ in range(count)]

    return build
