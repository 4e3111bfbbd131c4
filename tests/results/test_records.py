"""Schema validator, migrator, and streaming record I/O."""

import json

import pytest

from repro.engine import Scenario
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
    write_records,
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
        path = write_records(tmp_path / "c.jsonl", [record])
        first = path.read_bytes()
        write_records(path, load_records(path))
        assert path.read_bytes() == first
        assert first.decode().strip() == canonical_line(record)

    def test_iter_is_lazy(self, tmp_path, record):
        path = write_records(tmp_path / "c.jsonl", [record, record, record])
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

    def test_write_validates(self, tmp_path, record):
        record["result"]["status"] = "fine"
        with pytest.raises(SchemaError):
            write_records(tmp_path / "c.jsonl", [record])


class TestSpecHash:
    def test_matches_engine_content_hash(self, record):
        spec = next(Scenario(name="r", family="random_forest", sizes=(12,),
                             protocol="forest", seeds=(0,)).expand())
        assert spec_content_hash(record["spec"]) == spec.content_hash()

    def test_scenario_label_is_provenance_not_identity(self, record):
        relabeled = json.loads(json.dumps(record["spec"]))
        relabeled["scenario"] = "other-name"
        assert spec_content_hash(relabeled) == spec_content_hash(record["spec"])
