"""repro.api.Session: the fluent chain and its record-identity contract."""

import json

import pytest

from repro import Campaign, Scenario
from repro.api import Session, SessionAggregate, SessionRun
from repro.engine.faults import FaultSpec
from repro.errors import (
    BaselineError,
    ProtocolError,
    RegistryError,
    UnknownRegistryEntry,
)


def _strip(records):
    """Deterministic JSONL payloads (timing/cached removed)."""
    out = []
    for r in records:
        d = r.to_json_dict()
        d.pop("timing")
        d.pop("cached")
        out.append(json.dumps(d, sort_keys=True))
    return out


def _base() -> Session:
    return (Session("t")
            .graphs("random_forest", n=[12, 16], seeds=(0, 1))
            .protocol("forest"))


class TestChain:
    def test_run_records_and_summary(self):
        run = _base().run()
        assert isinstance(run, SessionRun)
        assert len(run.records) == 4
        assert all(r.status == "ok" for r in run.records)
        summary = run.summary()
        assert summary["runs"] == 4 and summary["exact"] == 4

    def test_aggregate_and_table(self):
        agg = _base().run().aggregate(by=["n"])
        assert isinstance(agg, SessionAggregate)
        assert len(agg) == 2
        assert [g["group"]["n"] for g in agg] == [12, 16]
        table = agg.table()
        assert "max bits (mean)" in table and "12" in table

    def test_freeze_then_gate_roundtrip(self, tmp_path):
        session = _base()
        session.run().freeze("t-base", baselines_dir=tmp_path)
        verdict = (session.run()
                   .aggregate(by=["n", "seed"])
                   .gate(baseline="t-base", baselines_dir=tmp_path))
        assert verdict.passed and verdict.runs_checked == 4

    def test_gate_missing_baseline_raises(self, tmp_path):
        with pytest.raises(BaselineError, match="does not exist"):
            _base().run().gate(baseline="nothing-here", baselines_dir=tmp_path)

    def test_gate_bare_name_never_reads_cwd(self, tmp_path, monkeypatch):
        """A stray cwd file must not shadow <baselines_dir>/<name>.json."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "smoke").write_text("not a baseline")
        with pytest.raises(BaselineError, match="expected"):
            _base().run().gate(baseline="smoke", baselines_dir=tmp_path / "b")

    def test_gate_dotted_bare_name_resolves_under_baselines_dir(self, tmp_path):
        """A dot in a name (campaign names allow them) does not make it a path."""
        session = _base()
        session.run().freeze("smoke.v2", baselines_dir=tmp_path)
        assert (tmp_path / "smoke.v2.json").exists()
        assert session.run().gate(baseline="smoke.v2", baselines_dir=tmp_path).passed

    def test_gate_accepts_explicit_path(self, tmp_path):
        session = _base()
        path = session.run().freeze("frozen", baselines_dir=tmp_path)
        assert session.run().gate(baseline=path).passed

    def test_deterministic_across_runs_and_executors(self):
        serial = _base().run()
        threaded = _base().executor("thread", jobs=2).run()
        assert _strip(serial.records) == _strip(threaded.records)


class TestRecordIdentity:
    """The acceptance contract: fluent == hand-wired, hash for hash."""

    def test_matches_hand_wired_campaign(self):
        run = (Session("fluent")
               .graphs("random_k_degenerate", n=[16, 24], seeds=range(3), k=2)
               .protocol("degeneracy", k=2)
               .faults(drop=0.01, seed=7)
               .shuffle()
               .run())
        hand = Campaign(
            [Scenario(name="hand", family="random_k_degenerate", sizes=(16, 24),
                      protocol="degeneracy", seeds=(0, 1, 2),
                      family_params={"k": 2}, protocol_params={"k": 2},
                      faults=FaultSpec(drop=0.01, seed=7),
                      shuffle_delivery=True)],
            name="hand", results_dir=None,
        ).run()
        fluent = {r.spec.content_hash(): r.output_digest for r in run.records}
        manual = {r.spec.content_hash(): r.output_digest for r in hand.records}
        assert fluent == manual

    def test_build_exposes_the_equivalent_campaign(self):
        campaign = _base().build()
        assert isinstance(campaign, Campaign)
        assert [s.family for s in campaign.scenarios] == ["random_forest"]
        assert campaign.results_dir is None  # no disk writes unless persisted

    def test_persist_streams_jsonl(self, tmp_path):
        run = _base().persist(tmp_path).run()
        assert run.result.jsonl_path is not None
        assert run.result.jsonl_path.exists()
        assert len(run.result.jsonl_path.read_text().splitlines()) == 4


class TestBuilderSemantics:
    def test_copy_on_write_prefixes_are_reusable(self):
        base = Session("b").protocol("forest")
        a = base.graphs("random_forest", n=12)
        b = base.graphs("random_tree", n=12)
        assert [s.family for s in a.scenarios()] == ["random_forest"]
        assert [s.family for s in b.scenarios()] == ["random_tree"]
        with pytest.raises(ProtocolError, match="no graph blocks"):
            base.scenarios()

    def test_multiple_graph_blocks(self):
        run = (Session("multi")
               .graphs("random_forest", n=12)
               .graphs("random_tree", n=[12, 16])
               .protocol("forest")
               .run())
        assert len(run.records) == 3
        assert {r.spec.family for r in run.records} == {"random_forest", "random_tree"}

    def test_referee_options_reach_the_specs(self):
        scenarios = (Session("opts")
                     .graphs("random_forest", n=12)
                     .protocol("forest")
                     .budget(64)
                     .shuffle()
                     .faults(drop=0.2, flip=0.1, seed=3)
                     .scenarios())
        (s,) = scenarios
        assert s.budget_bits == 64
        assert s.shuffle_delivery is True
        assert s.faults == FaultSpec(drop=0.2, flip=0.1, seed=3)

    def test_scalar_n_and_seeds(self):
        (s,) = Session("s").graphs("path", n=8, seeds=4).protocol("forest").scenarios()
        assert s.sizes == (8,) and s.seeds == (4,)

    def test_family_alias_resolves(self):
        (s,) = (Session("a").graphs("gnp", n=8, p=0.2)
                .protocol("full_adjacency").scenarios())
        assert s.family == "erdos_renyi"


class TestFailFast:
    def test_unknown_family_suggests(self):
        with pytest.raises(UnknownRegistryEntry, match="did you mean 'random_planar'"):
            Session().graphs("random_plana", n=8)

    def test_unknown_protocol_suggests(self):
        with pytest.raises(UnknownRegistryEntry, match="did you mean 'degeneracy'"):
            Session().protocol("degenracy")

    def test_unknown_params_rejected_at_chain_time(self):
        with pytest.raises(RegistryError, match="unknown parameter"):
            Session().graphs("random_planar", n=8, keep_probb=0.5)
        with pytest.raises(RegistryError, match="unknown parameter"):
            Session().protocol("degeneracy", kk=3)

    def test_unknown_executor(self):
        with pytest.raises(ProtocolError, match="unknown executor"):
            Session().executor("gpu")

    def test_missing_protocol(self):
        with pytest.raises(ProtocolError, match="no protocol"):
            Session().graphs("path", n=8).run()

    def test_empty_grid(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            Session().graphs("path", n=[])

    def test_string_sizes_rejected(self):
        with pytest.raises(ProtocolError, match="string"):
            Session().graphs("path", n="64")   # would silently mean (6, 4)
        with pytest.raises(ProtocolError, match="string"):
            Session().graphs("path", n=8, seeds="12")


class TestShardAndResume:
    def test_sharded_session_merges_to_identical_records(self, tmp_path):
        mono = _base().persist(tmp_path / "mono", use_cache=False).run()
        sharded = (_base().persist(tmp_path / "sh", use_cache=False)
                   .shard(3).run())
        assert _strip(sharded.records) == _strip(mono.records)
        assert sharded.result.jsonl_path.name == "t.jsonl"

    def test_single_shard_worker_covers_only_its_slice(self, tmp_path):
        full = _base().persist(tmp_path / "a", use_cache=False).shard(2).run()
        worker = (_base().persist(tmp_path / "b", use_cache=False)
                  .shard(2, index=0).run())
        assert 0 < len(worker.records) < len(full.records)
        assert worker.result.shard_index == 0
        assert worker.result.jsonl_path.name == "t.shard-0-of-2.jsonl"

    def test_resume_replays_a_complete_session(self, tmp_path):
        session = _base().persist(tmp_path, use_cache=False)
        cold = session.run()
        warm = session.resume().run()
        assert warm.result.resumed == len(cold.records)
        assert warm.result.cache_misses == 0
        assert _strip(warm.records) == _strip(cold.records)

    def test_shard_validation_fails_at_chain_time(self):
        with pytest.raises(ProtocolError, match="shards must be >= 1"):
            Session().shard(0)
        with pytest.raises(ProtocolError, match="out of range"):
            Session().shard(2, index=2)

    def test_shard_without_persist_fails_at_run_time(self):
        with pytest.raises(ProtocolError, match="results_dir"):
            _base().shard(2).run()

    def test_copy_on_write_shard_does_not_leak(self, tmp_path):
        base = _base().persist(tmp_path, use_cache=False)
        sharded = base.shard(2)
        assert base._shards is None  # the prefix is untouched
        assert sharded._shards == 2
        resumed = sharded.resume()
        assert not sharded._resume and resumed._resume
