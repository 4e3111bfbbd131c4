"""Schema-validated campaign record I/O.

The engine streams one JSON object per run into ``results/<name>.jsonl``
(DESIGN.md §3).  This module is the *read* side of that contract: a strict
validator (unknown keys and wrong types are rejected — ``True`` is not an
``int`` here), a version migrator for streams written by older engines, and
streaming iteration so a million-record file is never loaded whole.

The schema is pinned to :data:`repro.engine.scenario.SPEC_VERSION`.  A
record without a ``spec_version`` stamp is a v1 stream; :func:`migrate_record`
upgrades it in memory.  A record from a *newer* engine fails loudly instead
of being silently misread.

All validation failures raise :class:`~repro.errors.SchemaError` with
enough context (file, line, field path) to locate the offending record.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from repro.errors import SchemaError
from repro.engine.scenario import SPEC_VERSION, RunSpec

__all__ = [
    "RECORD_VERSION",
    "check_mapping",
    "validate_record",
    "migrate_record",
    "iter_records",
    "load_records",
    "write_records",
    "canonical_line",
    "spec_content_hash",
    "index_by_spec_hash",
]

#: The record schema version this module validates against (== engine
#: SPEC_VERSION: spec semantics and record schema move together).
RECORD_VERSION = SPEC_VERSION

_STATUSES = ("ok", "violation", "error")

#: JSON scalar types allowed as family/protocol parameter values.
_PARAM_SCALARS = (str, int, float, bool, type(None))

# field -> allowed types. ``bool`` is checked *before* ``int`` everywhere
# (Python's bool subclasses int; the schema keeps them distinct).
_SPEC_FIELDS: dict[str, tuple[type, ...]] = {
    "scenario": (str,),
    "family": (str,),
    "n": (int,),
    "seed": (int,),
    "protocol": (str,),
    "family_params": (dict,),
    "protocol_params": (dict,),
    "budget_bits": (int, type(None)),
    "shuffle_delivery": (bool,),
    "faults": (dict, type(None)),
}

_FAULT_SPEC_FIELDS: dict[str, tuple[type, ...]] = {
    "drop": (int, float),
    "duplicate": (int, float),
    "flip": (int, float),
    "seed": (int,),
}

_RESULT_FIELDS: dict[str, tuple[type, ...]] = {
    "status": (str,),
    "output_kind": (str,),
    "output_digest": (str,),
    "exact": (bool, type(None)),
    "graph_n": (int,),
    "graph_m": (int,),
    "max_message_bits": (int,),
    "total_message_bits": (int,),
    "faults": (dict,),
    "error": (str,),
}

_FAULT_COUNTER_FIELDS: dict[str, tuple[type, ...]] = {
    "dropped": (int,),
    "duplicated": (int,),
    "flipped": (int,),
}

_TOP_FIELDS: dict[str, tuple[type, ...]] = {
    "spec_version": (int,),
    "spec": (dict,),
    "result": (dict,),
    "timing": (dict,),
    "cached": (bool,),
}

_NON_NEGATIVE_RESULT_FIELDS = (
    "graph_n", "graph_m", "max_message_bits", "total_message_bits",
)


def _type_ok(value: Any, allowed: tuple[type, ...]) -> bool:
    """Strict isinstance: a bool never satisfies an int/float slot."""
    if isinstance(value, bool):
        return bool in allowed
    return isinstance(value, allowed)


def _type_names(allowed: tuple[type, ...]) -> str:
    return "/".join("null" if t is type(None) else t.__name__ for t in allowed)


def check_mapping(
    obj: Any,
    fields: Mapping[str, tuple[type, ...]],
    path: str,
    where: str,
    *,
    error: type[Exception] = SchemaError,
) -> None:
    """Strictly check ``obj`` against a field->types schema, or raise.

    The one validator behind every structured artifact this library
    reads: unknown keys, missing keys, and wrong types (bool never
    satisfies an int/float slot) all raise ``error`` — by default
    :class:`~repro.errors.SchemaError` for campaign records, but other
    schema owners (the trace event stream in :mod:`repro.obs.events`)
    pass their own hierarchy so callers can keep catching one type.
    """
    if not isinstance(obj, dict):
        raise error(f"{where}: {path} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - set(fields)
    if unknown:
        raise error(f"{where}: unknown key(s) {sorted(unknown)} in {path}")
    for key, allowed in fields.items():
        if key not in obj:
            raise error(f"{where}: missing key {path}.{key}")
        if not _type_ok(obj[key], allowed):
            raise error(
                f"{where}: {path}.{key} must be {_type_names(allowed)}, "
                f"got {type(obj[key]).__name__}"
            )


# The record validators below always raise SchemaError.
_check_mapping = check_mapping


def _check_params(obj: Mapping[str, Any], path: str, where: str) -> None:
    for key, value in obj.items():
        if not isinstance(key, str):
            raise SchemaError(f"{where}: {path} keys must be strings, got {key!r}")
        if not isinstance(value, _PARAM_SCALARS):
            raise SchemaError(
                f"{where}: {path}.{key} must be a JSON scalar, "
                f"got {type(value).__name__}"
            )


def migrate_record(record: Mapping[str, Any], *, where: str = "record") -> dict:
    """Upgrade a record written by an older engine to the current schema.

    * v1 streams carry no ``spec_version`` key — the stamp is added.
    * Streams from a *newer* engine are refused: silently misreading a
      schema we do not know is exactly what the version stamp prevents.

    Returns a (shallow) copy at :data:`RECORD_VERSION`; the input mapping is
    never mutated.
    """
    if not isinstance(record, Mapping):
        raise SchemaError(f"{where}: record must be an object, got {type(record).__name__}")
    out = dict(record)
    version = out.get("spec_version", 1)
    if not _type_ok(version, (int,)):
        raise SchemaError(
            f"{where}: spec_version must be int, got {type(version).__name__}"
        )
    if version > RECORD_VERSION:
        raise SchemaError(
            f"{where}: spec_version {version} is newer than this reader "
            f"(understands <= {RECORD_VERSION})"
        )
    # v1 -> v2: the only change is the stamp itself.
    out["spec_version"] = RECORD_VERSION
    return out


def validate_record(record: Mapping[str, Any], *, where: str = "record") -> dict:
    """Check one record against the DESIGN.md §3 schema; return it as a dict.

    Strict: unknown keys anywhere, missing keys, wrong types (including
    bool-for-int), bad status values, negative bit counts, and non-numeric
    timing entries all raise :class:`~repro.errors.SchemaError`.
    """
    if not isinstance(record, Mapping):
        raise SchemaError(f"{where}: record must be an object, got {type(record).__name__}")
    record = dict(record)
    _check_mapping(record, _TOP_FIELDS, "record", where)
    if record["spec_version"] != RECORD_VERSION:
        raise SchemaError(
            f"{where}: spec_version must be {RECORD_VERSION}, got "
            f"{record['spec_version']} (run migrate_record first)"
        )

    spec = record["spec"]
    _check_mapping(spec, _SPEC_FIELDS, "spec", where)
    _check_params(spec["family_params"], "spec.family_params", where)
    _check_params(spec["protocol_params"], "spec.protocol_params", where)
    if spec["faults"] is not None:
        _check_mapping(spec["faults"], _FAULT_SPEC_FIELDS, "spec.faults", where)
    if spec["n"] < 1:
        raise SchemaError(f"{where}: spec.n must be >= 1, got {spec['n']}")

    result = record["result"]
    _check_mapping(result, _RESULT_FIELDS, "result", where)
    if result["status"] not in _STATUSES:
        raise SchemaError(
            f"{where}: result.status must be one of {_STATUSES}, "
            f"got {result['status']!r}"
        )
    _check_mapping(result["faults"], _FAULT_COUNTER_FIELDS, "result.faults", where)
    for key in _NON_NEGATIVE_RESULT_FIELDS:
        if result[key] < 0:
            raise SchemaError(f"{where}: result.{key} must be >= 0, got {result[key]}")
    for key, value in result["faults"].items():
        if value < 0:
            raise SchemaError(f"{where}: result.faults.{key} must be >= 0, got {value}")

    for key, value in record["timing"].items():
        if not isinstance(key, str):
            raise SchemaError(f"{where}: timing keys must be strings, got {key!r}")
        if not _type_ok(value, (int, float)):
            raise SchemaError(
                f"{where}: timing.{key} must be a number, got {type(value).__name__}"
            )
    return record


def iter_records(
    path: str | pathlib.Path, *, migrate: bool = True
) -> Iterator[dict]:
    """Stream validated records from a JSONL file, one line at a time.

    Lazy: the file is read line by line, so arbitrarily large campaign
    files cost O(1) memory.  Blank lines are skipped.  With ``migrate``
    (the default) v1 streams are upgraded on the fly; ``migrate=False``
    demands records already at :data:`RECORD_VERSION` — the conformance
    mode used to test the engine's own emission.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise SchemaError(f"records file {path} does not exist")
    # Bytes, decoded per line, so a line that is not UTF-8 is located
    # like any other malformed line.
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path.name}:{lineno}"
            try:
                raw = json.loads(line.decode())
            except ValueError as exc:  # bad JSON or bytes that are not UTF-8
                raise SchemaError(f"{where}: not valid JSON: {exc}") from None
            if migrate:
                raw = migrate_record(raw, where=where)
            yield validate_record(raw, where=where)


def load_records(path: str | pathlib.Path, *, migrate: bool = True) -> list[dict]:
    """Eager counterpart of :func:`iter_records`."""
    return list(iter_records(path, migrate=migrate))


def canonical_line(record: Mapping[str, Any]) -> str:
    """The canonical byte form of one record (sorted keys, no trailing space)."""
    return json.dumps(record, sort_keys=True)


def write_records(
    path: str | pathlib.Path, records: Iterable[Mapping[str, Any]]
) -> pathlib.Path:
    """Validate and write records as canonical JSONL; returns the path.

    The inverse of :func:`load_records`: ``write_records(p, load_records(p))``
    reproduces the engine's bytes (the engine also writes ``sort_keys``).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for i, record in enumerate(records, start=1):
            validated = validate_record(record, where=f"{path.name}:{i}")
            fh.write(canonical_line(validated) + "\n")
    return path


def spec_content_hash(spec: Mapping[str, Any]) -> str:
    """Content hash of a record's ``spec`` section (see ``RunSpec.content_hash``).

    The alignment key of :mod:`repro.results.baseline`: two campaigns match
    runs on the physical spec, not on file order or scenario labels.
    """
    return RunSpec.from_dict(spec).content_hash()


def index_by_spec_hash(
    records: Iterable[Mapping[str, Any]], *, label: str = "campaign"
) -> dict[str, Mapping[str, Any]]:
    """Index records by :func:`spec_content_hash`; duplicates are an error.

    Campaigns deduplicate specs before running, so a duplicate hash means
    the file was concatenated or hand-edited — aligning on it would
    silently drop a run.
    """
    out: dict[str, Mapping[str, Any]] = {}
    for record in records:
        key = spec_content_hash(record["spec"])
        if key in out:
            raise SchemaError(
                f"{label} contains duplicate run {key}; campaigns deduplicate specs"
            )
        out[key] = record
    return out

