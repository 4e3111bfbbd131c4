"""Experiment harness: one function per experiment ID in DESIGN.md.

Each ``exp_*`` function returns ``(headers, rows)`` where rows are lists of
display-ready values; :func:`~repro.analysis.tables.format_table` renders
them in the aligned plain-text form ``python -m repro experiment <ID>``
prints.  EXPERIMENTS.md quotes these tables as the paper-vs-measured
record.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.analysis.tables", ("format_table",)),
    ("repro.analysis.experiments", (
        "exp_lemma1_counting", "exp_lemma2_encoding", "exp_lemma3_decoding",
        "exp_theorem5_reconstruction", "exp_theorem1_square", "exp_theorem2_diameter",
        "exp_theorem3_triangle", "exp_adversary", "exp_forest",
        "exp_generalized_degeneracy", "exp_connectivity_partition",
        "exp_connectivity_sketch", "exp_degeneracy_classes", "exp_bipartiteness_sketch",
        "exp_rounds_tradeoff", "exp_coalition", "exp_results_gate")),
))
