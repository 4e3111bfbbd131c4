"""Regrowth guard: every name a ``repro.*`` module exports is reached.

A name in a module's ``__all__`` counts as reached when it appears, as a
whole word, somewhere in ``src/``, ``examples/``, ``tools/``, ``perfbench/``
or ``.github/`` outside its own definition, the ``__all__`` lists, the lazy
export maps and import statements (a comment or docstring elsewhere counts);
when it is in ``repro.__all__``, which the api-surface fixture pins; or when
it is an object registered in :mod:`repro.registry`.  Tests do not count: a
public name that only its own tests reach goes, together with those tests.

``ORACLES`` keeps the few names that other tests use as oracles or
fixtures, each with its reason.  It must stay exact: a name that becomes
reached, or is deleted, leaves it.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pathlib
import pkgutil
import re

import repro
from repro import registry

ROOT = pathlib.Path(__file__).resolve().parents[2]
SEARCHED = ("src", "examples", "tools", "perfbench", ".github")

#: Assignments whose lines export rather than use a name.
EXPORT_MAPS = {"__all__", "_LAZY", "_LAZY_EXPORTS"}

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
}


def _exports() -> dict[str, list[str]]:
    """Exported name -> the modules whose ``__all__`` lists it."""
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"  # importing it runs the CLI
    ]
    out: dict[str, list[str]] = {}
    for name in names:
        for export in getattr(importlib.import_module(name), "__all__", ()):
            out.setdefault(export, []).append(name)
    return out


def _registered_ids() -> set[int]:
    return {
        id(registry.entry(kind, name).factory)
        for kind in registry.kinds()
        for name in registry.registry_for(kind).names()
    }


def _scan(path: pathlib.Path, words: set[str]) -> tuple[dict[str, list[int]], dict[str, range]]:
    """``(word -> lines that mention it, top-level name -> its definition's lines)``,
    skipping import statements and export maps."""
    text = path.read_text()
    skip: set[int] = set()
    defs: dict[str, range] = {}
    if path.suffix == ".py":
        tree = ast.parse(text)
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            if isinstance(node, (ast.Import, ast.ImportFrom)) or any(
                    isinstance(t, ast.Name) and t.id in EXPORT_MAPS for t in targets):
                skip.update(range(node.lineno, node.end_lineno + 1))
        for node in tree.body:
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            span = range(first, node.end_lineno + 1)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name] = span
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(t, ast.Name):
                        defs[t.id] = span
    mentions: dict[str, list[int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if lineno not in skip:
            for word in set(re.findall(r"[A-Za-z_]\w*", line)) & words:
                mentions.setdefault(word, []).append(lineno)
    return mentions, defs


@functools.lru_cache(maxsize=None)
def unreached() -> frozenset[str]:
    exports = _exports()
    registered = _registered_ids()
    words = set(exports)
    reached: set[str] = set(repro.__all__)
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*")):
            if path.suffix not in (".py", ".yml", ".yaml") or not path.is_file():
                continue
            mentions, defs = _scan(path, words)
            module = path.relative_to(ROOT / "src").with_suffix("").parts \
                if directory == "src" else ()
            module_name = ".".join(module[:-1] if module[-1:] == ("__init__",) else module)
            for word, lines in mentions.items():
                own = defs.get(word, ()) if module_name in exports[word] else ()
                if any(line not in own for line in lines):
                    reached.add(word)
    return frozenset(
        name for name, modules in exports.items()
        if name not in reached and not any(
            id(getattr(importlib.import_module(m), name, None)) in registered
            for m in modules)
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
