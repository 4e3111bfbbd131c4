"""Schema validator, migrator, and streaming record I/O."""

import hashlib
import json

import pytest

from repro import registry
from repro.engine import RunSpec, Scenario
from repro.engine.scenario import SPEC_VERSION, execute_run
from repro.errors import SchemaError
from repro.results import (
    RECORD_VERSION,
    canonical_line,
    iter_records,
    load_records,
    migrate_record,
    spec_content_hash,
    validate_record,
)


def _record() -> dict:
    spec = next(Scenario(name="r", family="random_forest", sizes=(12,),
                         protocol="forest", seeds=(0,)).expand())
    return execute_run(spec).to_json_dict()


@pytest.fixture()
def record():
    return _record()


class TestValidate:
    def test_engine_record_validates(self, record):
        assert validate_record(record) == record

    def test_version_matches_engine(self):
        assert RECORD_VERSION == SPEC_VERSION

    def test_unknown_top_level_key_rejected(self, record):
        record["extra"] = 1
        with pytest.raises(SchemaError, match="unknown key.*extra"):
            validate_record(record)

    def test_unknown_spec_key_rejected(self, record):
        record["spec"]["color"] = "red"
        with pytest.raises(SchemaError, match="unknown key.*color"):
            validate_record(record)

    def test_unknown_result_key_rejected(self, record):
        record["result"]["speed"] = 9
        with pytest.raises(SchemaError, match="unknown key.*speed"):
            validate_record(record)

    def test_missing_key_rejected(self, record):
        del record["result"]["output_digest"]
        with pytest.raises(SchemaError, match="missing key result.output_digest"):
            validate_record(record)

    def test_empty_graph_accepted_negative_n_rejected(self, record):
        record["spec"]["n"] = 0
        assert validate_record(record)["spec"]["n"] == 0
        record["spec"]["n"] = -1
        with pytest.raises(SchemaError, match="spec.n must be >= 0, got -1"):
            validate_record(record)

    def test_wrong_type_rejected(self, record):
        record["spec"]["n"] = "twelve"
        with pytest.raises(SchemaError, match="spec.n must be int"):
            validate_record(record)

    def test_bool_is_not_an_int(self, record):
        record["result"]["graph_n"] = True
        with pytest.raises(SchemaError, match="graph_n must be int"):
            validate_record(record)

    def test_int_is_not_a_bool(self, record):
        record["spec"]["shuffle_delivery"] = 1
        with pytest.raises(SchemaError, match="shuffle_delivery must be bool"):
            validate_record(record)

    def test_bad_status_rejected(self, record):
        record["result"]["status"] = "fine"
        with pytest.raises(SchemaError, match="status must be one of"):
            validate_record(record)

    def test_negative_bits_rejected(self, record):
        record["result"]["max_message_bits"] = -1
        with pytest.raises(SchemaError, match="max_message_bits must be >= 0"):
            validate_record(record)

    def test_non_numeric_timing_rejected(self, record):
        record["timing"]["wall_seconds"] = "fast"
        with pytest.raises(SchemaError, match="timing.wall_seconds must be a number"):
            validate_record(record)

    def test_param_value_must_be_scalar(self, record):
        record["spec"]["family_params"] = {"k": [1, 2]}
        with pytest.raises(SchemaError, match="family_params.k"):
            validate_record(record)

    def test_fault_sections_validated(self, record):
        record["result"]["faults"]["dropped"] = -2
        with pytest.raises(SchemaError, match="dropped must be >= 0"):
            validate_record(record)

    def test_non_mapping_rejected(self):
        with pytest.raises(SchemaError, match="must be an object"):
            validate_record([1, 2])


class TestMigrate:
    def test_v1_record_is_stamped(self, record):
        v1 = dict(record)
        del v1["spec_version"]
        migrated = migrate_record(v1)
        assert migrated["spec_version"] == RECORD_VERSION
        assert validate_record(migrated)
        assert "spec_version" not in v1  # input not mutated

    def test_unmigrated_v1_fails_strict_validation(self, record):
        del record["spec_version"]
        with pytest.raises(SchemaError, match="missing key record.spec_version"):
            validate_record(record)

    def test_future_version_refused(self, record):
        record["spec_version"] = RECORD_VERSION + 1
        with pytest.raises(SchemaError, match="newer than this reader"):
            migrate_record(record)

    def test_current_version_passes_through(self, record):
        assert migrate_record(record) == record


class TestStreamIO:
    def test_roundtrip_is_byte_stable(self, tmp_path, record):
        path = tmp_path / "c.jsonl"
        path.write_text(canonical_line(record) + "\n")
        assert [canonical_line(r) for r in load_records(path)] == [canonical_line(record)]

    def test_iter_is_lazy(self, tmp_path, record):
        path = tmp_path / "c.jsonl"
        path.write_text(3 * (canonical_line(record) + "\n"))
        it = iter_records(path)
        assert next(it)["spec"]["family"] == "random_forest"

    def test_blank_lines_skipped(self, tmp_path, record):
        path = tmp_path / "c.jsonl"
        path.write_text(canonical_line(record) + "\n\n" + canonical_line(record) + "\n")
        assert len(load_records(path)) == 2

    def test_error_carries_file_and_line(self, tmp_path, record):
        path = tmp_path / "c.jsonl"
        path.write_text(canonical_line(record) + "\n{not json\n")
        with pytest.raises(SchemaError, match=r"c\.jsonl:2.*not valid JSON"):
            load_records(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="does not exist"):
            load_records(tmp_path / "absent.jsonl")

    def test_v1_stream_migrates_on_load(self, tmp_path, record):
        v1 = dict(record)
        del v1["spec_version"]
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(v1, sort_keys=True) + "\n")
        [loaded] = load_records(path)
        assert loaded["spec_version"] == RECORD_VERSION

    def test_conformance_mode_rejects_v1(self, tmp_path, record):
        v1 = dict(record)
        del v1["spec_version"]
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(v1, sort_keys=True) + "\n")
        with pytest.raises(SchemaError, match="spec_version"):
            load_records(path, migrate=False)


class TestSpecHash:
    def test_matches_engine_content_hash(self, record):
        spec = next(Scenario(name="r", family="random_forest", sizes=(12,),
                             protocol="forest", seeds=(0,)).expand())
        assert spec_content_hash(record["spec"]) == spec.content_hash()

    def test_scenario_label_is_provenance_not_identity(self, record):
        relabeled = json.loads(json.dumps(record["spec"]))
        relabeled["scenario"] = "other-name"
        assert spec_content_hash(relabeled) == spec_content_hash(record["spec"])

    #: ``(specs, digest)`` of each builtin campaign's spec hashes in grid
    #: order: the digest is the first 16 hex digits of the sha256 of the
    #: hashes joined by newlines.
    CAMPAIGN_HASH_PINS = {
        "smoke": (8, "fb4567a1437dff22"),
        "faults": (54, "50409c3c622c9dab"),
        "degeneracy-sweep": (36, "1887e6e1d5cedc71"),
        "connectivity-sweep": (96, "73884219c19cf4c7"),
    }

    @pytest.mark.parametrize("name", sorted(CAMPAIGN_HASH_PINS))
    def test_stored_dict_hashes_like_its_runspec(self, name):
        """The read side hashes a stored spec dict with no RunSpec; it must
        give every builtin spec its pinned RunSpec hash."""
        specs = [spec for scenario in registry.CAMPAIGN.get(name)()
                 for spec in scenario.expand()]
        hashes = [spec.content_hash() for spec in specs]
        for spec, digest in zip(specs, hashes):
            stored = json.loads(json.dumps(spec.to_dict()))  # as a stream holds it
            assert spec_content_hash(stored) == digest
            assert RunSpec.from_dict(stored).content_hash() == digest
        pin = hashlib.sha256("\n".join(hashes).encode()).hexdigest()[:16]
        assert (len(hashes), pin) == self.CAMPAIGN_HASH_PINS[name]
