"""Frozen campaign baselines and the one pin check behind every gate.

:func:`freeze` distills a campaign's deterministic fields — per-run status,
output digest, exactness, bit counts, keyed by spec content hash — into
``benchmarks/baselines/<name>.json``.  :func:`check` replays the contract
against a fresh run and returns a structured pass/fail that CI turns into
an exit code: a changed digest means the protocol now computes something
else; a grown bit count means a message got bigger than the paper's bound
justified; a missing run means the campaign grid silently shrank.
:func:`diff_campaigns` is the same check with a second campaign as the
baseline, and the bench gate (:func:`repro.bench.check_suite`) runs its
pinned table through the same :func:`compare_pins`.

Baselines deliberately contain no timing — they must be reproducible on
any machine (the engine's determinism contract, DESIGN.md §2).
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.errors import BaselineError, SchemaError
from repro.results.records import RECORD_VERSION, index_by_spec_hash

__all__ = [
    "BASELINE_VERSION",
    "DEFAULT_BASELINES_DIR",
    "summarize_campaign",
    "freeze",
    "load_baseline",
    "CheckFailure",
    "BaselineCheck",
    "compare_pins",
    "check",
    "diff_campaigns",
]

BASELINE_VERSION = 1

DEFAULT_BASELINES_DIR = pathlib.Path("benchmarks") / "baselines"

#: Deterministic result fields a baseline pins exactly.
_PINNED_FIELDS = ("status", "output_kind", "output_digest", "exact")

#: Result fields a baseline pins up to the relative bit tolerance.
_BIT_FIELDS = ("max_message_bits", "total_message_bits")


def _by_hash(records: Iterable[Mapping], *, label: str) -> dict[str, dict]:
    """A campaign's pin table: spec content hash -> flat deterministic entry."""
    by_hash: dict[str, dict] = {}
    for key, record in sorted(index_by_spec_hash(records, label=label).items()):
        spec, result = record["spec"], record["result"]
        entry = {k: spec[k] for k in ("scenario", "family", "n", "seed", "protocol")}
        for name in _PINNED_FIELDS + _BIT_FIELDS:
            entry[name] = result[name]
        by_hash[key] = entry
    return by_hash


def summarize_campaign(records: Iterable[Mapping], *, name: str = "campaign") -> dict:
    """The frozen form of a campaign: its per-run deterministic fields."""
    by_hash = _by_hash(records, label=f"baseline {name!r}")
    if not by_hash:
        raise SchemaError(f"cannot freeze baseline {name!r} from zero records")
    return {
        "baseline_version": BASELINE_VERSION,
        "name": name,
        "spec_version": RECORD_VERSION,
        "runs": len(by_hash),
        "by_hash": by_hash,
    }


def freeze(
    records: Iterable[Mapping],
    name: str,
    *,
    baselines_dir: str | pathlib.Path = DEFAULT_BASELINES_DIR,
) -> pathlib.Path:
    """Write ``<baselines_dir>/<name>.json`` (sorted, indented, byte-stable)."""
    baselines_dir = pathlib.Path(baselines_dir)
    baselines_dir.mkdir(parents=True, exist_ok=True)
    path = baselines_dir / f"{name}.json"
    summary = summarize_campaign(records, name=name)
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return path


def load_baseline(source: str | pathlib.Path | Mapping) -> dict:
    """Load and structurally check a frozen baseline (path or parsed dict)."""
    if isinstance(source, Mapping):
        baseline = dict(source)
    else:
        path = pathlib.Path(source)
        if not path.exists():
            raise BaselineError(f"baseline file {path} does not exist")
        try:
            baseline = json.loads(path.read_text())
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from None
    if not isinstance(baseline, dict):
        raise BaselineError("baseline must be a JSON object")
    version = baseline.get("baseline_version")
    if version != BASELINE_VERSION:
        raise BaselineError(
            f"baseline_version must be {BASELINE_VERSION}, got {version!r}"
        )
    if not isinstance(baseline.get("by_hash"), dict) or not baseline["by_hash"]:
        raise BaselineError("baseline has no 'by_hash' run table")
    # A truncated entry would make check() vacuously pass — the gate must
    # fail loudly on a baseline that cannot actually pin anything.
    for key, entry in baseline["by_hash"].items():
        if not isinstance(entry, dict):
            raise BaselineError(f"baseline entry {key} is not an object")
        missing = [f for f in _PINNED_FIELDS + _BIT_FIELDS if f not in entry]
        if missing:
            raise BaselineError(
                f"baseline entry {key} is missing pinned field(s) {missing}"
            )
    return baseline


@dataclass(frozen=True)
class CheckFailure:
    """One violated pin: a run, a benchmark, a speedup floor or a trend."""

    kind: str        # "missing-run" | "extra-run" | "result" | "bits" | ...
    key: str         # spec content hash, or a benchmark name
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "key": self.key, "detail": self.detail}


@dataclass
class BaselineCheck:
    """The one verdict of ``check``, ``diff`` and the bench gate — what CI gates on."""

    baseline_name: str
    runs_checked: int
    bits_tolerance: float
    failures: list[CheckFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline_name,
            "passed": self.passed,
            "runs_checked": self.runs_checked,
            "bits_tolerance": self.bits_tolerance,
            "failures": [f.to_dict() for f in self.failures],
        }


def compare_pins(
    expected: Mapping[str, Mapping],
    actual: Mapping[str, Mapping],
    *,
    exact: Sequence[str],
    bits: Sequence[str] = (),
    bits_tolerance: float = 0.0,
    what: str = "run",
    label: Callable[[Mapping], str] | None = None,
) -> list[CheckFailure]:
    """The one keyed pin comparison behind ``check``, ``diff`` and the bench gate.

    Both tables map a key to a flat entry.  Keys only ``expected`` has fail
    as ``missing-<what>``, keys only ``actual`` has as ``extra-<what>`` (a
    silently grown grid is as suspicious as a shrunken one).  Per shared
    key, the ``exact`` fields must be equal (``result`` failures) and the
    ``bits`` fields within the relative ``bits_tolerance``
    (``|new - old| <= tol * max(old, 1)``; ``bits`` failures).  ``label``
    names a missing or extra entry in its detail line.
    """
    def named(entry: Mapping) -> str:
        return f"{what} {label(entry)}" if label else what

    failures = [
        CheckFailure(f"missing-{what}", key,
                     f"baseline {named(expected[key])} not present")
        for key in sorted(expected.keys() - actual.keys())
    ]
    failures += [
        CheckFailure(f"extra-{what}", key,
                     f"{named(actual[key])} has no baseline entry (re-freeze?)")
        for key in sorted(actual.keys() - expected.keys())
    ]
    for key in sorted(expected.keys() & actual.keys()):
        e, a = expected[key], actual[key]
        for name in exact:
            if a[name] != e[name]:
                failures.append(CheckFailure(
                    "result", key, f"{name}: expected {e[name]!r}, got {a[name]!r}"))
        for name in bits:
            if abs(a[name] - e[name]) > bits_tolerance * max(abs(e[name]), 1):
                failures.append(CheckFailure(
                    "bits", key,
                    f"{name}: expected {e[name]} ± {bits_tolerance:.0%}, got {a[name]}"))
    return failures


def _run_label(entry: Mapping) -> str:
    return (f"{entry.get('scenario')}/{entry.get('family')}/n={entry.get('n')}/"
            f"seed={entry.get('seed')}")


def _check_records(
    name: str, expected: Mapping, records: Iterable[Mapping], bits_tolerance: float
) -> BaselineCheck:
    if bits_tolerance < 0:
        raise SchemaError(f"bits_tolerance must be >= 0, got {bits_tolerance}")
    actual = _by_hash(records, label="checked campaign")
    return BaselineCheck(
        baseline_name=name,
        runs_checked=len(actual),
        bits_tolerance=bits_tolerance,
        failures=compare_pins(expected, actual, exact=_PINNED_FIELDS,
                              bits=_BIT_FIELDS, bits_tolerance=bits_tolerance,
                              label=_run_label),
    )


def check(
    records: Iterable[Mapping],
    baseline: str | pathlib.Path | Mapping,
    *,
    bits_tolerance: float = 0.0,
) -> BaselineCheck:
    """Verify a fresh campaign against a frozen baseline (see :func:`compare_pins`).

    Runs are keyed on the *physical* spec content hash, so scenario labels
    and file order never matter.
    """
    baseline = load_baseline(baseline)
    return _check_records(str(baseline.get("name", "baseline")),
                          baseline["by_hash"], records, bits_tolerance)


def diff_campaigns(
    records_a: Iterable[Mapping],
    records_b: Iterable[Mapping],
    *,
    bits_tolerance: float = 0.0,
) -> BaselineCheck:
    """Compare two campaigns run by run: :func:`check` with side a as the baseline.

    Unlike a frozen baseline, side a may be empty: two empty campaigns agree.
    """
    return _check_records("a", _by_hash(records_a, label="campaign a"),
                          records_b, bits_tolerance)
