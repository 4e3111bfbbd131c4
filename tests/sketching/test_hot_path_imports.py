"""The sketch protocols never touch the reference twins.

``repro.sketching.agm`` is the one production form of the L0 sketch;
``L0Sampler`` and ``OneSparseSketch`` are the plain references the parity
suites check it against.  This guard keeps the references out of the hot
path: no name or attribute in the production modules refers to them
(docstrings may still mention them).
"""

import ast
import importlib
import inspect

import pytest

REFERENCE_TWINS = {"L0Sampler", "OneSparseSketch"}


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname


@pytest.mark.parametrize("module", ["agm", "connectivity", "bipartiteness", "multiround_conn"])
def test_production_module_never_uses_a_reference_twin(module):
    mod = importlib.import_module(f"repro.sketching.{module}")
    tree = ast.parse(inspect.getsource(mod))
    assert REFERENCE_TWINS.isdisjoint(_referenced_names(tree))
    assert REFERENCE_TWINS.isdisjoint(vars(mod))
