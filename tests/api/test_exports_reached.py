"""Regrowth guard: every name a ``repro.*`` module exports is reached by code.

An exported name (one in a module's ``__all__``), or a public method or
property defined in the body of an exported class, counts as reached when
an AST ``Name`` or ``Attribute`` load of it appears in ``src/``,
``examples/``, ``tools/`` or ``perfbench/`` outside its own definition, or
when a ``.github/`` workflow mentions it as a whole word.  A mention in a
comment, docstring, import statement or export map is not a load, so it
does not count.  Names in ``repro.__all__``, which the api-surface fixture
pins, and objects registered in :mod:`repro.registry` are exempt.  Tests do
not count: a public name that only its own tests reach goes, together with
those tests.

``ORACLES`` keeps the few names that other tests use as oracles or
fixtures, each with its reason; a method is keyed ``Class.method``.  It
must stay exact: a name that becomes reached, or is deleted, leaves it.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pathlib
import pkgutil
import re

import repro
from repro import registry

ROOT = pathlib.Path(__file__).resolve().parents[2]
SEARCHED = ("src", "examples", "tools", "perfbench")
WORKFLOWS = ROOT / ".github"

ORACLES = {
    "petersen": "named graph for the property, scenario, Theorem 5 and gadget tests",
    "bull": "named graph for the triangle tests in test_properties",
    "paw": "named graph for the triangle tests in test_properties",
    "kite": "named graph for the triangle, square and girth tests in test_properties",
    "complete_bipartite": "generator for the bipartiteness, generator and §III.E tests",
    "connected_components": "ground truth for the sketch and generator tests",
    "core_numbers": "the tests' window onto the peeling core, checked against networkx",
    "double_cover_components": "ground truth for the sketch-bipartiteness tests",
    "canonical_line": "the engine's line form: schema conformance checks every line against it",
    "L0Sampler": "the plain reference twin of agm's flat-counter codec in the parity tests",
    "percentile": "the exact reference the quantile sketch is checked against",
    "generalized_degeneracy": "the oracle for the §III.E gate on every small graph",
    "treewidth_exact": "checks degeneracy <= treewidth in the invariant tests",
    "girth": "ground truth for the square and triangle detection tests",
    "EmptyProtocol": "referee fixture: a protocol that sends nothing",
    "IdEchoProtocol": "referee fixture: a protocol whose messages are the senders' IDs",
    "LabeledGraph.to_networkx": "hands graphs to networkx, the tests' independent oracle",
    "QuantileSketch.spilled": "lets the sketch tests see when a histogram left its exact mode",
    "use_tracer": "the hook the protocol sub-phase spans of ROADMAP item 3 report through",
    "L0Sampler.from_counters": "rebuilds the reference twin from agm's flat counters for parity",
    "BitWriter.to_bytes": "the bytes the bits-pack floor and the bit round-trip tests compare",
    "DecisionProtocol.decide": "the tests' bool-checked way to run a decision protocol on a graph",
    "MetricsRegistry.gauge": "the metrics tests read a gauge back through it (set and merge)",
    "Session.persist": "the trace-overhead floor drives a persisted Session through it",
}


def _span(node: ast.stmt) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


@functools.lru_cache(maxsize=None)
def _definitions(path: str) -> dict[str, range]:
    """Top-level name, or ``Class.member`` for a public method or property
    in a top-level class body -> the lines of its definition in ``path``."""
    out: dict[str, range] = {}
    for node in ast.parse(pathlib.Path(path).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = _span(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not item.name.startswith("_"):
                        out[f"{node.name}.{item.name}"] = _span(item)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(t, ast.Name):
                    out[t.id] = _span(node)
    return out


def _guarded() -> dict[str, tuple[str, str, range]]:
    """Guarded name (``name`` or ``Class.member``) -> (the word a load must
    use, the file defining it, the lines of its definition there)."""
    registered = {
        id(registry.entry(kind, name).factory)
        for kind in registry.kinds()
        for name in registry.registry_for(kind).names()
    }
    modules = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"  # importing it runs the CLI
    ]
    out: dict[str, tuple[str, str, range]] = {}
    for module_name in modules:
        module = importlib.import_module(module_name)
        for export in getattr(module, "__all__", ()):
            value = getattr(module, export)
            home = importlib.import_module(getattr(value, "__module__", None) or module_name)
            if not getattr(home, "__file__", None):
                home = module
            path = str(pathlib.Path(home.__file__).resolve())
            defs = _definitions(path)
            if export not in repro.__all__ and id(value) not in registered:
                out[export] = (export, path, defs.get(export, range(0)))
            if inspect.isclass(value):
                prefix = f"{value.__name__}."
                for key, span in defs.items():
                    if key.startswith(prefix):
                        out[f"{export}.{key[len(prefix):]}"] = (key[len(prefix):], path, span)
    return out


def _loads(path: pathlib.Path) -> dict[str, list[int]]:
    """Word -> the lines where it is loaded as a ``Name`` or an ``Attribute``."""
    out: dict[str, list[int]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.setdefault(node.id, []).append(node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.setdefault(node.attr, []).append(node.lineno)
    return out


@functools.lru_cache(maxsize=None)
def unreached() -> frozenset[str]:
    loads: dict[str, dict[str, list[int]]] = {}
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for word, lines in _loads(path).items():
                loads.setdefault(word, {})[str(path.resolve())] = lines
    mentioned = {
        word
        for path in sorted(WORKFLOWS.rglob("*"))
        if path.suffix in (".yml", ".yaml") and path.is_file()
        for word in re.findall(r"[A-Za-z_]\w*", path.read_text())
    }
    return frozenset(
        name for name, (word, home, span) in _guarded().items()
        if word not in mentioned and not any(
            path != home or any(line not in span for line in lines)
            for path, lines in loads.get(word, {}).items())
    )


def test_every_exported_name_is_reached_outside_tests():
    orphans = sorted(unreached() - set(ORACLES))
    assert not orphans, (
        f"exported but reached only by tests: {orphans}; delete them (and the "
        "tests that cover only them), or use them from a user-facing path"
    )


def test_oracle_allowlist_is_exact():
    stale = sorted(set(ORACLES) - unreached())
    assert not stale, f"no longer unreached or no longer exported: {stale}"
