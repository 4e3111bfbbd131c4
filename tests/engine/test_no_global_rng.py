"""RNG hygiene: the engine never touches the global ``random`` state.

Every internal draw — graph generation inside workers, shuffle delivery,
fault injection, sketch seeding — must come from a dedicated
``random.Random`` seeded by the spec.  The guard: seed the global module,
record the sequence it *would* produce, do a pile of engine work, then draw
for real and compare.  Any engine call that consumed or reseeded the global
stream shifts the sequence and fails the test.
"""

import random

import pytest

from repro.engine import Campaign, FaultSpec, Scenario, SerialExecutor, execute_run
from repro.graphs.generators import random_tree
from repro.model import Message, Referee
from repro.sketching import AGMConnectivityProtocol

SENTINEL_SEED = 999
DRAWS = 8


def _expected_sequence():
    random.seed(SENTINEL_SEED)
    expected = [random.random() for _ in range(DRAWS)]
    random.seed(SENTINEL_SEED)  # rewind so the engine work starts from here
    return expected


def _assert_untouched(expected):
    assert [random.random() for _ in range(DRAWS)] == expected, \
        "global random state was consumed or reseeded"


@pytest.mark.parametrize("trace", [False, True])
def test_engine_campaign_run_leaves_global_rng_alone(tmp_path, trace):
    expected = _expected_sequence()
    scenarios = [
        Scenario(name="forest", family="random_forest", sizes=(12,),
                 protocol="forest", seeds=(0, 1), shuffle_delivery=True),
        Scenario(name="sketch", family="random_tree", sizes=(12,),
                 protocol="agm_connectivity", seeds=(0,),
                 protocol_params={"sketch_seed": 3}),
        Scenario(name="faulty", family="random_forest", sizes=(12,),
                 protocol="forest", seeds=(0,),
                 faults=FaultSpec(drop=0.3, duplicate=0.3, flip=0.3, seed=2)),
    ]
    Campaign(scenarios, name="hygiene", results_dir=tmp_path).run(
        SerialExecutor(), trace=trace)
    _assert_untouched(expected)


def test_fault_injection_leaves_global_rng_alone():
    expected = _expected_sequence()
    spec = FaultSpec(drop=0.4, duplicate=0.4, flip=0.4, seed=8)
    tagged = [(i, Message(i % 256, 8)) for i in range(1, 30)]
    for run_seed in range(5):
        spec.injector(run_seed).apply(tagged)
    _assert_untouched(expected)


def test_unseeded_shuffle_delivery_leaves_global_rng_alone():
    expected = _expected_sequence()
    g = random_tree(16, seed=3)
    report = Referee(shuffle_delivery=True).run(AGMConnectivityProtocol(seed=0), g)
    assert isinstance(report.output, bool)
    _assert_untouched(expected)


def test_execute_run_leaves_global_rng_alone():
    expected = _expected_sequence()
    spec = next(
        Scenario(name="s", family="two_components", sizes=(14,),
                 protocol="agm_connectivity", seeds=(4,), shuffle_delivery=True,
                 faults=FaultSpec(flip=0.2, seed=1)).expand()
    )
    record = execute_run(spec)
    assert record.status in ("ok", "error")
    _assert_untouched(expected)


def test_identical_specs_identical_records_despite_global_seed_noise(tmp_path):
    """Reseeding the global RNG between runs must not change any record."""
    scenario = Scenario(name="s", family="random_forest", sizes=(12,),
                        protocol="forest", seeds=(0,),
                        faults=FaultSpec(drop=0.2, seed=3))
    random.seed(1)
    rec1 = execute_run(next(scenario.expand()))
    random.seed(2)
    rec2 = execute_run(next(scenario.expand()))
    assert rec1.to_json_dict()["result"] == rec2.to_json_dict()["result"]
