"""Scenario grids, run specs, content hashes, and worker-side execution."""

import pytest

from repro.engine.faults import FaultSpec
from repro import registry
from repro.engine.scenario import (
    RunRecord,
    RunSpec,
    Scenario,
    execute_run,
    output_digest,
)
from repro.errors import ProtocolError
from repro.graphs.labeled import LabeledGraph
from repro.model import Referee
from repro.protocols import ForestReconstructionProtocol


def _scenario(**overrides):
    kwargs = dict(
        name="s", family="random_forest", sizes=(12, 16), protocol="forest", seeds=(0, 1)
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestScenario:
    def test_unknown_family_rejected(self):
        with pytest.raises(ProtocolError, match="unknown graph family"):
            _scenario(family="petersen")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ProtocolError, match="unknown protocol"):
            _scenario(protocol="telepathy")

    def test_budget_bits_must_be_an_integer(self):
        with pytest.raises(ProtocolError, match="budget_bits"):
            _scenario(budget_bits="100")

    def test_empty_grid_rejected(self):
        with pytest.raises(ProtocolError, match="sizes"):
            _scenario(sizes=())
        with pytest.raises(ProtocolError, match="seeds"):
            _scenario(seeds=())

    def test_negative_size_rejected(self):
        with pytest.raises(ProtocolError, match="sizes must be >= 0, got -1"):
            _scenario(sizes=(3, -1))
        assert _scenario(sizes=(0, 3)).sizes == (0, 3)

    def test_expand_order_sizes_major(self):
        specs = list(_scenario().expand())
        assert [(s.n, s.seed) for s in specs] == [(12, 0), (12, 1), (16, 0), (16, 1)]
        assert all(s.scenario == "s" for s in specs)

    def test_params_normalized_and_hashable(self):
        a = _scenario(family_params={"n_trees": 2}, protocol_params={})
        b = _scenario(family_params=(("n_trees", 2),))
        assert a == b and hash(a) == hash(b)

    def test_dict_roundtrip(self):
        s = _scenario(
            family_params={"n_trees": 3},
            budget_bits=64,
            shuffle_delivery=True,
            faults=FaultSpec(drop=0.1, seed=2),
        )
        assert Scenario.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown_and_missing(self):
        with pytest.raises(ProtocolError, match="unknown Scenario"):
            Scenario.from_dict({**_scenario().to_dict(), "colour": "red"})
        with pytest.raises(ProtocolError, match="missing required"):
            Scenario.from_dict({"name": "x", "family": "path", "sizes": [4]})

    def test_every_registry_entry_builds(self):
        for family in registry.GRAPH_FAMILY.names():
            g = registry.GRAPH_FAMILY.build(family, 8, 0)
            assert isinstance(g, LabeledGraph)
            assert g.n == 8, f"family {family} built {g.n} vertices for size 8"
        for protocol in registry.PROTOCOL.names():
            p = registry.PROTOCOL.build(protocol, 8)
            assert hasattr(p, "local") and hasattr(p, "global_")

    def test_grid_exact_sizes_including_primes(self):
        for n in (1, 7, 12, 13, 16):
            assert registry.GRAPH_FAMILY.build("grid", n, 0).n == n

    def test_hypercube_rejects_non_power_of_two(self):
        with pytest.raises(ProtocolError, match="power-of-two"):
            registry.GRAPH_FAMILY.build("hypercube", 100, 0)

    def test_unsatisfiable_size_recorded_not_raised(self):
        spec = next(
            _scenario(family="hypercube", sizes=(100,), protocol="full_adjacency").expand()
        )
        record = execute_run(spec)
        assert record.status == "error"
        assert "power-of-two" in record.error


class TestRunSpec:
    def test_content_hash_stable_and_sensitive(self):
        spec = next(_scenario().expand())
        same = next(_scenario().expand())
        assert spec.content_hash() == same.content_hash()
        other = next(_scenario(seeds=(5,)).expand())
        assert spec.content_hash() != other.content_hash()

    def test_content_hash_ignores_scenario_label(self):
        a = next(_scenario(name="alpha").expand())
        b = next(_scenario(name="beta").expand())
        assert a.content_hash() == b.content_hash()  # same physical run

    def test_dict_roundtrip(self):
        spec = next(_scenario(faults=FaultSpec(flip=0.5)).expand())
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_builds_deterministic_graph(self):
        spec = next(_scenario().expand())
        assert spec.build_graph() == spec.build_graph()


class TestExecuteRun:
    def test_ok_reconstruction(self):
        record = execute_run(next(_scenario().expand()))
        assert record.status == "ok"
        assert record.output_kind == "graph"
        assert record.exact is True
        assert record.graph_n == 12
        assert record.max_message_bits > 0
        assert "wall_seconds" in record.timing

    def test_decision_protocol_digest(self):
        spec = next(
            _scenario(family="random_tree", protocol="agm_connectivity", sizes=(16,)).expand()
        )
        record = execute_run(spec)
        assert record.status == "ok"
        assert record.output_kind == "bool"
        assert record.output_digest in ("True", "False")
        assert record.exact is None

    def test_budget_violation_recorded_not_raised(self):
        record = execute_run(next(_scenario(budget_bits=1).expand()))
        assert record.status == "violation"
        assert "budget" in record.error

    def test_wrong_typed_family_param_recorded_not_raised(self):
        # A JSON spec can carry a string where the builder wants an int.
        spec = next(_scenario(family_params={"n_trees": "3"}).expand())
        record = execute_run(spec)
        assert record.status == "error"
        assert record.error.startswith("TypeError:")

    def test_type_error_inside_the_round_propagates(self, monkeypatch):
        # Only setup failures are measurements; a TypeError raised by the
        # protocol itself is a bug and must surface.
        def broken_global(self, n, messages):
            raise TypeError("protocol bug")

        monkeypatch.setattr(ForestReconstructionProtocol, "global_", broken_global)
        with pytest.raises(TypeError, match="protocol bug"):
            execute_run(next(_scenario().expand()))

    def test_fault_induced_decode_error_recorded(self):
        spec = next(_scenario(sizes=(16,), faults=FaultSpec(drop=1.0, seed=1)).expand())
        record = execute_run(spec)
        assert record.status in ("error", "ok")  # decoder may fail or mis-reconstruct
        if record.status == "ok":
            assert record.exact is False

    def test_record_matches_plain_referee(self):
        # The campaign path adds no semantics: a record is Referee.run with
        # the spec's options, down to a fault-corrupted output.
        spec = next(_scenario(
            family="random_tree", protocol="full_adjacency", sizes=(32,), seeds=(3,),
            shuffle_delivery=True, faults=FaultSpec(duplicate=0.3, flip=0.1, seed=2),
        ).expand())
        record = execute_run(spec)
        report = Referee(
            shuffle_delivery=True, shuffle_seed=spec.seed,
            faults=spec.faults, fault_seed=spec.seed,
        ).run(spec.build_protocol(), spec.build_graph())
        assert record.status == "ok" and record.exact is False
        assert record.output_digest == output_digest(report.output)[1]
        assert record.max_message_bits == report.max_message_bits
        assert record.total_message_bits == report.total_message_bits
        assert record.faults == report.fault_counters
        assert record.faults.duplicated > 0 and record.faults.flipped > 0

    def test_record_json_roundtrip(self):
        record = execute_run(next(_scenario().expand()))
        clone = RunRecord.from_json_dict(record.to_json_dict())
        assert clone.spec == record.spec
        assert clone.status == record.status
        assert clone.output_digest == record.output_digest
        assert clone.faults == record.faults


class TestOutputDigest:
    def test_graph_digest_tracks_structure(self):
        g1 = LabeledGraph(3, [(1, 2)])
        g2 = LabeledGraph(3, [(1, 3)])
        assert output_digest(g1) != output_digest(g2)
        assert output_digest(g1) == output_digest(LabeledGraph(3, [(1, 2)]))

    def test_bool_digest(self):
        assert output_digest(True) == ("bool", "True")

    def test_other_types(self):
        kind, digest = output_digest([1, 2, 3])
        assert kind == "list" and len(digest) == 16
