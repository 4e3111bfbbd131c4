#!/usr/bin/env python
"""Write this checkout's run-independent outputs to one directory.

Two snapshots must be byte-identical whatever interpreter version, string
hash seed or machine took them; CI diffs the snapshot of each Python
version it tests, and ``tests/test_hash_seed_determinism.py`` diffs two
hash seeds.

    PYTHONPATH=src python tools/determinism_snapshot.py OUTDIR

writes

* ``OUTDIR/experiments.json`` — ``repro experiment all --json`` without
  the wall-clock columns named in
  ``repro.analysis.experiments.TIMING_COLUMNS``;
* ``OUTDIR/smoke.jsonl`` — the smoke campaign's records, computed afresh
  (``--no-cache``), without their ``timing`` and ``cached`` fields.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile


def _repro(*argv: str) -> str:
    """Run ``repro *argv`` in this process; its stdout."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {code}")
    return out.getvalue()


def experiments() -> str:
    from repro.analysis.experiments import TIMING_COLUMNS

    tables = json.loads(_repro("experiment", "all", "--json"))
    for table in tables:
        keep = [i for i, h in enumerate(table["headers"]) if h not in TIMING_COLUMNS]
        table["headers"] = [table["headers"][i] for i in keep]
        table["rows"] = [[row[i] for i in keep] for row in table["rows"]]
    return json.dumps(tables, indent=2, sort_keys=True) + "\n"


def smoke_records() -> str:
    with tempfile.TemporaryDirectory(prefix="repro-snapshot-") as tmp:
        _repro("campaign", "smoke", "--results-dir", tmp, "--no-cache", "--json")
        lines = (pathlib.Path(tmp) / "smoke.jsonl").read_text().splitlines()
    out = []
    for line in lines:
        record = json.loads(line)
        del record["timing"], record["cached"]
        out.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(out)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = pathlib.Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "experiments.json").write_text(experiments())
    (outdir / "smoke.jsonl").write_text(smoke_records())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
