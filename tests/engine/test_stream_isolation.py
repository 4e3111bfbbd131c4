"""Stream isolation: each random stream of a run answers to its own knob.

A run draws from three independent streams: the graph generator (family,
``n``, ``seed``), the fault injector (``FaultSpec.seed`` and the run
seed), and the protocol's own randomness (the AGM ``sketch_seed``), plus
the delivery shuffle.  Turning one knob must leave every other stream's
observable effect unchanged: toggling ``shuffle_delivery`` or changing
``sketch_seed`` must not move the graph or the fault counters.
"""

import pytest

from repro.engine import FaultSpec, execute_run
from repro.engine.scenario import RunSpec

# No drops: a dropped sketch message aborts the decode, and the record
# then carries no fault counters to compare.
FAULTS = FaultSpec(duplicate=0.3, flip=0.3, seed=5)


def _spec(*, shuffle: bool = False, sketch_seed: int = 0) -> RunSpec:
    return RunSpec(
        scenario="isolation", family="random_tree", n=16, seed=3,
        protocol="agm_connectivity",
        protocol_params=(("sketch_seed", sketch_seed),),
        shuffle_delivery=shuffle, faults=FAULTS,
    )


def _observed(spec: RunSpec) -> tuple:
    record = execute_run(spec)
    assert record.status == "ok", record.error
    graph = spec.build_graph()
    return (graph.n, sorted(graph.edges()), record.graph_n, record.graph_m,
            record.faults)


def test_the_faulty_spec_exercises_every_stream():
    record = execute_run(_spec(shuffle=True, sketch_seed=1))
    assert record.faults.duplicated and record.faults.flipped


def test_toggling_shuffle_leaves_graph_and_faults_unchanged():
    assert _observed(_spec(shuffle=True)) == _observed(_spec(shuffle=False))


@pytest.mark.parametrize("sketch_seed", [1, 2, 7])
def test_sketch_seed_leaves_graph_and_faults_unchanged(sketch_seed):
    assert _observed(_spec(sketch_seed=sketch_seed)) == _observed(_spec())
