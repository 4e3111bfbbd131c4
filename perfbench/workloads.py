"""Workloads: seeded grids drawn from pinned pools, and the pin checker.

Each workload is a set of cells.  A cell is one (family, n, protocol)
block with a finite pool of grid points: graph seeds, or (graph seed,
sketch seed) pairs for the AGM cells.  ``--seed`` picks, per cell, which
pool points form the base grid and which few extra points extend it for
the replay step.  Every pool point has a pinned outcome digest in
``pins.json`` (see ``freeze.py``), so any seed's grid can be checked run
by run.  The program only ever sees the generated campaign spec.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from dataclasses import dataclass

PINS_PATH = pathlib.Path(__file__).resolve().parent / "pins.json"

#: The deterministic part of a record's ``result`` section that a pin
#: covers: status, output digest, exactness, message bits, fault counts.
PINNED_FIELDS = (
    "status", "output_kind", "output_digest", "exact",
    "max_message_bits", "total_message_bits", "faults",
)

Point = tuple[int, "int | None"]


def outcome_digest(result: dict) -> str:
    """Short digest of the pinned fields of one record's ``result``."""
    body = json.dumps([result.get(k) for k in PINNED_FIELDS],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Cell:
    """One (family, n, protocol) block and its pool of grid points."""

    name: str
    family: str
    n: int
    protocol: str
    graph_seeds: int
    sketch_seeds: int = 0
    family_params: tuple = ()
    protocol_params: tuple = ()
    faults: tuple = ()

    def pool(self) -> list[Point]:
        if self.sketch_seeds:
            return [(g, s) for g in range(self.graph_seeds)
                    for s in range(self.sketch_seeds)]
        return [(g, None) for g in range(self.graph_seeds)]

    def scenarios(self, points: list[Point]) -> list[dict]:
        """Campaign-spec scenarios covering ``points``, one per sketch seed."""
        by_sketch: dict[int | None, list[int]] = {}
        for graph_seed, sketch_seed in points:
            by_sketch.setdefault(sketch_seed, []).append(graph_seed)
        out = []
        for sketch_seed in sorted(by_sketch, key=lambda s: -1 if s is None else s):
            params = dict(self.protocol_params)
            name = self.name
            if sketch_seed is not None:
                params["sketch_seed"] = sketch_seed
                name = f"{self.name}~s{sketch_seed}"
            scenario = {"name": name, "family": self.family, "sizes": [self.n],
                        "protocol": self.protocol,
                        "seeds": sorted(by_sketch[sketch_seed])}
            if self.family_params:
                scenario["family_params"] = dict(self.family_params)
            if params:
                scenario["protocol_params"] = params
            if self.faults:
                scenario["faults"] = dict(self.faults)
            out.append(scenario)
        return out

    def point_of(self, spec: dict) -> Point:
        sketch_seed = None
        if self.sketch_seeds:
            sketch_seed = (spec.get("protocol_params") or {}).get("sketch_seed")
        return spec["seed"], sketch_seed


@dataclass(frozen=True)
class Workload:
    """A named set of cells; ``base`` + ``extra`` points are drawn per cell."""

    name: str
    why: str
    cells: tuple[Cell, ...]
    base: int
    extra: int
    #: Drive the program through ``python -m repro`` (else in-process).
    via_cli: bool

    def draw(self, seed: int) -> "Grid":
        points = {}
        for cell in self.cells:
            rng = random.Random(f"{self.name}/{cell.name}/{seed}")
            points[cell.name] = rng.sample(cell.pool(), self.base + self.extra)
        return Grid(self, points)


@dataclass(frozen=True)
class Grid:
    """One seed's draw: per cell, base points first, then the extra ones."""

    workload: Workload
    points: dict[str, list[Point]]

    def _count(self, extended: bool) -> int:
        return self.workload.base + (self.workload.extra if extended else 0)

    def spec(self, extended: bool) -> dict:
        k = self._count(extended)
        scenarios = [sc for cell in self.workload.cells
                     for sc in cell.scenarios(self.points[cell.name][:k])]
        return {"name": self.workload.name, "scenarios": scenarios}

    def unit_specs(self) -> list[dict]:
        """One single-run spec per point of the extended grid, base points first."""
        w = self.workload
        return [{"name": w.name, "scenarios": cell.scenarios([point])}
                for lo, hi in ((0, w.base), (w.base, w.base + w.extra))
                for cell in w.cells
                for point in self.points[cell.name][lo:hi]]

    def warmup_spec(self, per_cell: int) -> dict:
        scenarios = [sc for cell in self.workload.cells
                     for sc in cell.scenarios(self.points[cell.name][:per_cell])]
        return {"name": f"{self.workload.name}-warmup", "scenarios": scenarios}

    def runs(self, extended: bool) -> int:
        return self._count(extended) * len(self.workload.cells)

    def nodes(self, extended: bool) -> int:
        return self._count(extended) * sum(c.n for c in self.workload.cells)


def load_pins(path: pathlib.Path = PINS_PATH) -> dict:
    return json.loads(path.read_text())["workloads"]


class Checker:
    """Compares records against the pins of one workload.

    :meth:`check` returns ``None`` for a record whose pinned fields match,
    else a short reason.  A split (``two_components``) input reported
    connected is a failure whatever the pin says: AGM's error is
    one-sided, so that outcome is always wrong.
    """

    def __init__(self, workload: Workload, pins: dict) -> None:
        self.cells = {c.name: c for c in workload.cells}
        self.index = {c.name: {p: i for i, p in enumerate(c.pool())}
                      for c in workload.cells}
        self.pins = pins[workload.name]

    def check(self, record: dict) -> str | None:
        spec, result = record["spec"], record["result"]
        cell = self.cells.get(spec["scenario"].split("~")[0])
        if cell is None or spec["family"] != cell.family or spec["n"] != cell.n:
            return "record outside the workload's cells"
        index = self.index[cell.name].get(cell.point_of(spec))
        if index is None:
            return "record outside the pinned pool"
        if cell.family == "two_components" and result.get("output_digest") == "True":
            return "split input reported connected"
        if outcome_digest(result) != self.pins[cell.name][index]:
            return "outcome differs from pin"
        return None


def _degeneracy_cells() -> tuple[Cell, ...]:
    return tuple(
        Cell(f"k{k}-n{n}", "random_k_degenerate", n, "degeneracy", graph_seeds=24,
             family_params=(("k", k),), protocol_params=(("k", k),))
        for k in (2, 3) for n in (256, 512, 1024)
    )


def _sketch_cells() -> tuple[Cell, ...]:
    return tuple(
        Cell(f"{family}-n{n}", family, n, "agm_connectivity",
             graph_seeds=8, sketch_seeds=4)
        for family in ("random_tree", "two_components") for n in (64, 128)
    )


_FAULTS = (("drop", 0.01), ("duplicate", 0.01), ("flip", 0.01), ("seed", 11))

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "reconstruct",
            "Theorem 5 reconstruction at n<=1024: the referee's Newton decode "
            "dominates, local encoding is small",
            _degeneracy_cells(), base=3, extra=1, via_cli=False,
        ),
        Workload(
            "sketch",
            "AGM connectivity on connected and split inputs: sketch encoding "
            "and unpack+Boruvka decoding both carry weight",
            _sketch_cells(), base=2, extra=1, via_cli=False,
        ),
        Workload(
            "ledger",
            "thousands of tiny runs through the CLI: engine, fsync persistence, "
            "cache, report and import dominate",
            (
                Cell("forest-n16", "random_forest", 16, "forest", graph_seeds=1200),
                Cell("forest-n32", "random_forest", 32, "forest", graph_seeds=1200),
                Cell("faulty-k2-n32", "random_k_degenerate", 32, "degeneracy",
                     graph_seeds=1200, family_params=(("k", 2),),
                     protocol_params=(("k", 2),), faults=_FAULTS),
            ),
            base=600, extra=60, via_cli=True,
        ),
    )
}
