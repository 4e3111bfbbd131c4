"""Campaign runner: dedup, caching, JSONL determinism, spec loading."""

import json

import pytest

from repro.engine import (
    Campaign,
    FaultSpec,
    ProcessPoolExecutor,
    Scenario,
    SerialExecutor,
    ThreadPoolExecutor,
    builtin_campaign,
    load_campaign,
)
from repro import registry
from repro.engine.scenario import SPEC_VERSION
from repro.errors import ProtocolError
from repro.protocols import ForestReconstructionProtocol


def _scenarios():
    return [
        Scenario(name="forest", family="random_forest", sizes=(12, 16),
                 protocol="forest", seeds=(0, 1)),
        Scenario(name="conn", family="two_components", sizes=(12,),
                 protocol="agm_connectivity", seeds=(0,)),
    ]


def _strip_nondeterministic(jsonl_text):
    out = []
    for line in jsonl_text.splitlines():
        d = json.loads(line)
        d.pop("timing")
        d.pop("cached")
        out.append(json.dumps(d, sort_keys=True))
    return out


class TestExpansion:
    def test_overlapping_grids_deduplicate(self, tmp_path):
        overlapping = _scenarios() + [_scenarios()[0]]  # same block twice
        campaign = Campaign(overlapping, results_dir=tmp_path)
        assert len(campaign.specs()) == 5  # 4 forest + 1 connectivity

    def test_empty_campaign_rejected(self):
        with pytest.raises(ProtocolError, match="at least one scenario"):
            Campaign([])

    @pytest.mark.parametrize("name", ["a/b", "../../../leak", "..", ".", "",
                                      "a\\b"])
    def test_names_that_would_escape_the_results_dir_rejected(self, name):
        with pytest.raises(ProtocolError, match="plain file name"):
            Campaign(_scenarios(), name=name)
        with pytest.raises(ProtocolError, match="plain file name"):
            Campaign.from_dict({"name": name, "scenarios": [
                s.to_dict() for s in _scenarios()]}, results_dir=None)

    def test_same_physical_run_under_two_names_deduplicates(self, tmp_path):
        twins = [
            Scenario(name="alpha", family="random_forest", sizes=(12,),
                     protocol="forest", seeds=(0,)),
            Scenario(name="beta", family="random_forest", sizes=(12,),
                     protocol="forest", seeds=(0,)),
        ]
        campaign = Campaign(twins, results_dir=tmp_path)
        assert len(campaign.specs()) == 1
        assert campaign.specs()[0].scenario == "alpha"  # first declaration wins

    def test_cache_shared_across_scenario_names(self, tmp_path):
        first = Campaign(
            [Scenario(name="alpha", family="random_forest", sizes=(12,),
                      protocol="forest", seeds=(0,))],
            name="c1", results_dir=tmp_path).run()
        second = Campaign(
            [Scenario(name="beta", family="random_forest", sizes=(12,),
                      protocol="forest", seeds=(0,))],
            name="c2", results_dir=tmp_path).run()
        assert first.cache_misses == 1
        assert second.cache_hits == 1  # same physical run, different label
        # the replayed record carries the *requesting* campaign's provenance
        assert second.records[0].spec.scenario == "beta"
        assert second.records[0].output_digest == first.records[0].output_digest


class TestRun:
    def test_serial_run_produces_jsonl(self, tmp_path):
        result = Campaign(_scenarios(), name="t", results_dir=tmp_path).run()
        assert result.ok == len(result.records) == 5
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert set(first) == {"spec_version", "spec", "result", "timing", "cached"}

    def test_no_results_dir(self):
        result = Campaign(_scenarios(), results_dir=None).run()
        assert result.jsonl_path is None
        assert len(result.records) == 5

    def test_cache_replay(self, tmp_path):
        campaign = Campaign(_scenarios(), name="c", results_dir=tmp_path)
        cold = campaign.run()
        warm = campaign.run()
        assert (cold.cache_hits, cold.cache_misses) == (0, 5)
        assert (warm.cache_hits, warm.cache_misses) == (5, 0)
        assert all(r.cached for r in warm.records)
        assert [r.output_digest for r in warm.records] == \
               [r.output_digest for r in cold.records]

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        campaign = Campaign(_scenarios(), name="c", results_dir=tmp_path)
        campaign.run()
        stream = tmp_path / "c.jsonl"
        lines = stream.read_text().splitlines(keepends=True)
        lines[1] = "{not json\n"  # corrupt mid-stream: the stream is skipped
        stream.write_text("".join(lines))
        again = campaign.run()
        assert (again.cache_hits, again.cache_misses) == (0, 5)

    def test_torn_tail_recomputes_only_that_record(self, tmp_path):
        campaign = Campaign(_scenarios(), name="c", results_dir=tmp_path)
        cold = campaign.run()
        stream = tmp_path / "c.jsonl"
        data = stream.read_bytes()
        stream.write_bytes(data[: data.rindex(b"\n", 0, -1) + 20])  # torn last line
        again = campaign.run()
        assert (again.cache_hits, again.cache_misses) == (4, 1)
        assert not again.records[-1].cached
        assert [r.output_digest for r in again.records] == \
               [r.output_digest for r in cold.records]

    def test_persisted_run_writes_only_the_stream_mark_manifest_and_metrics(
            self, tmp_path):
        campaign = Campaign(_scenarios(), name="c", results_dir=tmp_path)
        campaign.run()
        campaign.run()  # a warm re-run adds nothing either
        assert {p.name for p in tmp_path.iterdir()} == {
            "c.jsonl", "c.done", "c.manifest.json", "c.metrics.json",
        }

    def test_shard_streams_serve_a_monolithic_campaign_of_another_name(
            self, tmp_path):
        sharded = Campaign(_scenarios(), name="s", results_dir=tmp_path,
                           use_cache=False)
        sharded.run(shards=3, shard_index=0)
        sharded.run(shards=3, shard_index=1)
        sharded.run(shards=3, shard_index=2)
        assert not (tmp_path / "s.jsonl").exists()  # no merge: streams only
        mono = Campaign(_scenarios(), name="m", results_dir=tmp_path).run()
        assert (mono.cache_hits, mono.cache_misses) == (5, 0)
        assert all(r.cached for r in mono.records)

    def test_manifest_at_another_spec_version_is_ignored(self, tmp_path):
        campaign = Campaign(_scenarios(), name="c", results_dir=tmp_path)
        campaign.run()
        manifest = tmp_path / "c.manifest.json"
        raw = json.loads(manifest.read_text())
        raw["spec_version"] = SPEC_VERSION - 1
        manifest.write_text(json.dumps(raw))
        assert campaign.run().cache_misses == 5

    def test_foreign_or_broken_manifests_are_ignored(self, tmp_path):
        Campaign(_scenarios(), name="c", results_dir=tmp_path).run()
        # a copy of c's manifest under another stem names another campaign
        (tmp_path / "other.manifest.json").write_text(
            (tmp_path / "c.manifest.json").read_text())
        (tmp_path / "other.jsonl").write_text(
            (tmp_path / "c.jsonl").read_text())
        (tmp_path / "junk.manifest.json").write_text("{not json")
        (tmp_path / "typed.manifest.json").write_text(json.dumps({
            "manifest_version": 1, "spec_version": SPEC_VERSION,
            "campaign": "typed", "shards": "many", "spec_hashes": []}))
        (tmp_path / "c.jsonl").unlink()
        again = Campaign(_scenarios(), name="d", results_dir=tmp_path).run()
        assert (again.cache_hits, again.cache_misses) == (0, 5)

    def test_stale_old_layout_cache_dir_is_ignored(self, tmp_path):
        campaign = Campaign(_scenarios(), name="c", results_dir=tmp_path,
                            use_cache=False)
        cold = campaign.run()
        old = tmp_path / "cache"
        old.mkdir()
        for record in cold.records:
            (old / f"{record.spec.content_hash()}.json").write_text(
                json.dumps(record.to_json_dict(), sort_keys=True))
        (tmp_path / "c.jsonl").unlink()
        (tmp_path / "c.manifest.json").unlink()
        again = Campaign(_scenarios(), name="c", results_dir=tmp_path).run()
        assert (again.cache_hits, again.cache_misses) == (0, 5)
        assert len(list(old.iterdir())) == 5  # neither read nor deleted

    def test_use_cache_false(self, tmp_path):
        campaign = Campaign(_scenarios(), name="c", results_dir=tmp_path, use_cache=False)
        campaign.run()
        assert not (tmp_path / "cache").exists()
        assert campaign.run().cache_hits == 0


class TestDeterminism:
    """Acceptance: same spec + seeds => byte-identical JSONL modulo timing."""

    def test_repeat_runs_byte_identical(self, tmp_path):
        scenarios = _scenarios() + [
            Scenario(name="faulty", family="random_forest", sizes=(12,),
                     protocol="forest", seeds=(0, 1, 2),
                     faults=FaultSpec(drop=0.3, duplicate=0.3, flip=0.3, seed=4)),
        ]
        a = Campaign(scenarios, name="a", results_dir=tmp_path / "a", use_cache=False).run()
        b = Campaign(scenarios, name="b", results_dir=tmp_path / "b", use_cache=False).run()
        assert _strip_nondeterministic(a.jsonl_path.read_text()) == \
               _strip_nondeterministic(b.jsonl_path.read_text())

    @pytest.mark.parametrize("backend", [ThreadPoolExecutor, ProcessPoolExecutor],
                             ids=["thread", "process"])
    def test_pooled_backends_match_serial(self, tmp_path, backend):
        scenarios = _scenarios()
        serial = Campaign(scenarios, name="s", results_dir=tmp_path / "s",
                          use_cache=False).run(SerialExecutor())
        with backend(2) as ex:
            pooled = Campaign(scenarios, name="p", results_dir=tmp_path / "p",
                              use_cache=False).run(ex)
        assert _strip_nondeterministic(serial.jsonl_path.read_text()) == \
               _strip_nondeterministic(pooled.jsonl_path.read_text())

    def test_protocol_type_error_escapes_the_campaign(self, monkeypatch):
        def broken_global(self, n, messages):
            raise TypeError("protocol bug")

        monkeypatch.setattr(ForestReconstructionProtocol, "global_", broken_global)
        campaign = Campaign(_scenarios(), results_dir=None, use_cache=False)
        with pytest.raises(TypeError, match="protocol bug"):
            campaign.run()

    def test_cached_payload_matches_fresh(self, tmp_path):
        campaign = Campaign(_scenarios(), name="c", results_dir=tmp_path)
        cold = campaign.run()
        warm = campaign.run()
        assert _strip_nondeterministic(cold.jsonl_path.read_text()) == \
               _strip_nondeterministic(warm.jsonl_path.read_text())


class TestLoading:
    def test_builtin_names_all_instantiate(self, tmp_path):
        for name in registry.CAMPAIGN.names():
            campaign = builtin_campaign(name, results_dir=tmp_path)
            assert campaign.specs(), name

    def test_unknown_builtin(self):
        with pytest.raises(ProtocolError, match="unknown builtin"):
            builtin_campaign("nope")

    def test_load_from_json_file(self, tmp_path):
        spec = {
            "name": "from-file",
            "scenarios": [
                {"name": "deg", "family": "random_k_degenerate", "sizes": [16],
                 "protocol": "degeneracy", "seeds": [0, 1],
                 "family_params": {"k": 2}, "protocol_params": {"k": 2}},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        campaign = load_campaign(path, results_dir=tmp_path)
        result = campaign.run()
        assert result.name == "from-file"
        assert result.ok == 2
        assert all(r.exact for r in result.records)

    def test_load_missing_source(self, tmp_path):
        with pytest.raises(ProtocolError, match="neither a builtin"):
            load_campaign(tmp_path / "absent.json")

    def test_campaign_dict_roundtrip(self, tmp_path):
        campaign = Campaign(_scenarios(), name="r", results_dir=tmp_path)
        clone = Campaign.from_dict(campaign.to_dict(), results_dir=tmp_path)
        assert [s.to_dict() for s in clone.scenarios] == \
               [s.to_dict() for s in campaign.scenarios]

    def test_smoke_builtin_runs(self, tmp_path):
        result = builtin_campaign("smoke", results_dir=tmp_path).run()
        assert len(result.records) == 8
        clean = [r for r in result.records if r.spec.faults is None]
        assert all(r.status == "ok" for r in clean)
        reconstructions = [r for r in clean if r.exact is not None]
        assert reconstructions and all(r.exact for r in reconstructions)
