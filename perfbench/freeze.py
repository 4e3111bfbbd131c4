#!/usr/bin/env python3
"""Re-freeze ``pins.json``: run every pool point of every workload once.

Run from the repository root after a reviewed change to record
semantics (it takes about half a minute):

    python3 perfbench/freeze.py

Refuses to freeze an outcome that is wrong on its face: an inexact
reconstruction without faults, or a split input reported connected.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path.cwd() / "src"))

from workloads import PINNED_FIELDS, PINS_PATH, WORKLOADS, outcome_digest  # noqa: E402


def freeze_cell(workload_name: str, cell) -> list[str]:
    from repro.engine.campaign import Campaign

    spec = {"name": f"{workload_name}-pins", "scenarios": cell.scenarios(cell.pool())}
    result = Campaign.from_dict(spec, results_dir=None, use_cache=False).run()
    index = {p: i for i, p in enumerate(cell.pool())}
    digests = [""] * len(index)
    for record in result.records:
        d = record.to_json_dict()
        res = d["result"]
        if not cell.faults and res["exact"] is False:
            raise SystemExit(f"{cell.name}: inexact reconstruction {d['spec']}")
        if cell.family == "two_components" and res["output_digest"] == "True":
            raise SystemExit(f"{cell.name}: split input reported connected {d['spec']}")
        digests[index[cell.point_of(d["spec"])]] = outcome_digest(res)
    if "" in digests:
        raise SystemExit(f"{cell.name}: pool point without a record")
    return digests


def main() -> int:
    pins = {
        w.name: {cell.name: freeze_cell(w.name, cell) for cell in w.cells}
        for w in WORKLOADS.values()
    }
    payload = {"format": 1, "fields": list(PINNED_FIELDS), "workloads": pins}
    PINS_PATH.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"wrote {PINS_PATH}: "
          + ", ".join(f"{w} {sum(map(len, c.values()))} pins" for w, c in pins.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
