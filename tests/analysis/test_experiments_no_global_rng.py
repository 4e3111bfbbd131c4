"""RNG hygiene: no experiment touches the global ``random`` state.

The experiments' draws come from seeded generators and dedicated
``random.Random`` instances, so running one must leave the global
sequence exactly where it found it (the engine and the bench harness
carry the same guard).
"""

import random

import pytest

from repro import registry

SENTINEL_SEED = 999
DRAWS = 8


@pytest.mark.parametrize("experiment", sorted(registry.catalog()["experiment"]))
def test_experiment_leaves_global_rng_alone(experiment):
    random.seed(SENTINEL_SEED)
    expected = [random.random() for _ in range(DRAWS)]
    random.seed(SENTINEL_SEED)
    registry.EXPERIMENT.build(experiment)
    assert [random.random() for _ in range(DRAWS)] == expected, \
        f"{experiment} consumed or reseeded the global random state"
