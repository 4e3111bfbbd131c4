"""Experiment harness: one function per experiment ID in DESIGN.md.

Each ``exp_*`` function returns ``(headers, rows)`` where rows are lists of
display-ready values; :func:`~repro.analysis.tables.format_table` renders
them in the aligned plain-text form ``python -m repro experiment <ID>``
prints.  EXPERIMENTS.md quotes these tables as the paper-vs-measured
record.
"""

import importlib
from typing import Any

from repro.analysis.tables import format_table


def __getattr__(name: str) -> Any:
    # The exp_* functions resolve lazily: repro.analysis.experiments pulls
    # in every protocol family, which the CLI must not pay for on verbs
    # that never run an experiment.
    if name in __all__:
        value = getattr(importlib.import_module("repro.analysis.experiments"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "format_table",
    "exp_lemma1_counting",
    "exp_lemma2_encoding",
    "exp_lemma3_decoding",
    "exp_theorem5_reconstruction",
    "exp_theorem1_square",
    "exp_theorem2_diameter",
    "exp_theorem3_triangle",
    "exp_adversary",
    "exp_forest",
    "exp_generalized_degeneracy",
    "exp_connectivity_partition",
    "exp_connectivity_sketch",
    "exp_degeneracy_classes",
    "exp_bipartiteness_sketch",
    "exp_rounds_tradeoff",
    "exp_coalition",
    "exp_results_gate",
]
