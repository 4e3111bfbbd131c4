"""repro.api — the fluent front door to the whole pipeline.

One import, one chain, the entire system: :class:`Session` strings the
graph registry, the protocol registry, the referee options, the execution
engine, and the results layer into a single builder::

    from repro.api import Session

    (Session("quick")
     .graphs("random_planar", n=[64, 256], seeds=range(5))
     .protocol("degeneracy", k=5)
     .executor("process")
     .run()
     .aggregate(by=["n"])
     .gate(baseline="smoke"))

A session builds the exact :class:`~repro.engine.scenario.Scenario` /
:class:`~repro.engine.campaign.Campaign` objects the engine has always
run — same spec content hashes, same output digests, same JSONL bytes —
so fluent chains, hand-wired campaigns, JSON spec files, and the CLI are
four spellings of one pipeline.  Discovery lives next door in
:func:`repro.registry.catalog` (CLI: ``python -m repro list``).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.api.session", ("Session", "SessionRun", "SessionAggregate")),
    ("repro.registry", ("catalog",)),
))
