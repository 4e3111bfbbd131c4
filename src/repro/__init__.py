"""repro — the referee model of Becker, Matamala, Nisse, Rapaport, Suchan &
Todinca, *"Adding a referee to an interconnection network: What can(not) be
computed in one round"* (IPDPS 2011), as a runnable Python library.

The package simulates the paper's model — every node of a labelled graph
sends one ``O(log n)``-bit message to a central referee — and implements,
from scratch, everything the paper builds on it:

* the **degeneracy-k reconstruction protocol** (power sums + referee-side
  pruning; Algorithms 3–4, Theorem 5), its forest special case, recognition
  variant, and generalized-degeneracy extension;
* the **impossibility reductions** for squares, triangles, and diameter
  (Theorems 1–3) as executable protocol transformers, with the counting
  bound (Lemma 1) and an adversarial collision search;
* the conclusion's **partition connectivity** scheme and — answering the
  paper's main open question with the technique the field later adopted —
  **AGM linear-sketch connectivity** in one round and in the multi-round
  variant;
* the **execution engine** (:mod:`repro.engine`): serial / thread / process
  executors that batch local-phase calls and fan out whole runs, a
  fault-injection model for the node→referee link, and a declarative
  scenario/campaign layer with content-hash caching and JSONL results;
* the **results layer** (:mod:`repro.results`): schema-validated streaming
  record I/O, group-by analytics with the Lemma-2 ``bits/(k² log n)``
  normalization, campaign diffing on spec content hashes, and frozen
  baselines that turn regressions into CI failures;
* the **registry** (:mod:`repro.registry`): every pluggable piece — graph
  families, protocols, experiments, builtin campaigns — self-registers
  with capability metadata and a parameter schema, introspectable via
  ``repro.registry.catalog()`` / ``python -m repro list``;
* the **fluent API** (:mod:`repro.api`): ``Session`` chains the whole
  pipeline (graphs → protocol → faults → executor → run → aggregate →
  gate) and produces records identical to hand-wired campaigns;
* the **observability layer** (:mod:`repro.obs`): a span tracer on the
  engine's monotonic timebase streaming crash-durable
  ``<name>.events.jsonl`` telemetry, always-on campaign metrics
  (counters/gauges/histograms, Prometheus-renderable), live progress
  reporting, and the ``repro trace`` / ``repro stats`` readers — off by
  default and provably free (the ``trace-overhead`` speedup floor in
  ``tests/bench/test_speedup_floors.py`` pins it);
* the **campaign service** (:mod:`repro.serve`): a zero-dependency asyncio
  HTTP/JSON daemon (``python -m repro serve``) with a durable, restart-
  recoverable job store, priority admission with backpressure, a
  shard-pulling worker pool riding the engine's checkpoint/resume
  machinery, streaming JSONL record follow, and a stdlib thin client
  (``repro submit`` / ``jobs`` / ``job`` and ``Session.submit(url)``).

Quickstart (the fluent pipeline)::

    from repro.api import Session

    run = (Session("quick")
           .graphs("random_planar", n=64, seeds=range(3))
           .protocol("degeneracy", k=5)
           .run())
    print(run.aggregate(by=["n"]).table())

or one round on one graph, by hand::

    from repro import DegeneracyReconstructionProtocol, Referee
    from repro.graphs.generators import random_planar

    g = random_planar(64, seed=1)            # planar => degeneracy <= 5
    protocol = DegeneracyReconstructionProtocol(k=5)
    report = Referee().run(protocol, g)
    assert report.output == g                # exact reconstruction
    print(report.max_message_bits, "bits/node")

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record; ``python -m repro list`` enumerates the runnable
experiments and builtin campaigns, and README.md shows the five-line
campaign quickstart.
"""

import importlib
import sys
from collections.abc import Callable, Sequence
from typing import Any

__version__ = "2.0.0"


def _lazy_exports(
    package: str, table: Sequence[tuple[str, Sequence[str]]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """PEP 562 exports for ``package`` from its ordered ``(module, names)`` table.

    Returns ``(__all__, __getattr__, __dir__)``: ``__all__`` lists the names
    in table order, and each name loads from its module on first access and
    is then cached in the package namespace, so importing a package loads
    none of its submodules.  Any other attribute resolves as a submodule
    (``import repro; repro.engine``).  A name that is also the name of its
    defining submodule (``repro.graphs.degeneracy``) is bound now: the first
    import of that submodule would otherwise rebind the package attribute to
    the module.
    """
    homes = {name: module for module, names in table for name in names}
    namespace = sys.modules[package].__dict__
    for name, module in homes.items():
        if module == f"{package}.{name}":
            namespace[name] = getattr(importlib.import_module(module), name)

    def __getattr__(name: str) -> Any:
        module = homes.get(name)
        if module is not None:
            value = namespace[name] = getattr(importlib.import_module(module), name)
            return value
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise  # a real missing dependency inside the submodule
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None

    def __dir__() -> list[str]:
        return sorted({*namespace, *homes})

    return list(homes), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    (__name__, ("__version__",)),
    ("repro.errors", (
        "ReproError", "UnknownRegistryEntry", "BitstreamError", "CodecError", "GraphError",
        "ProtocolError", "FrugalityViolation", "DecodeError", "RecognitionFailure",
        "SketchFailure")),
    ("repro.graphs", ("LabeledGraph", "degeneracy")),
    ("repro.model", (
        "Message", "OneRoundProtocol", "DecisionProtocol", "ReconstructionProtocol",
        "Referee", "RunReport", "FrugalityAuditor", "MultiRoundReferee")),
    ("repro.protocols", (
        "DegeneracyReconstructionProtocol", "DegeneracyRecognitionProtocol",
        "ForestReconstructionProtocol", "GeneralizedDegeneracyProtocol",
        "BoundedDegreeProtocol", "PartitionConnectivityProtocol")),
    ("repro.reductions", ("SquareReduction", "DiameterReduction", "TriangleReduction")),
    ("repro.sketching", ("AGMConnectivityProtocol",)),
    ("repro.engine", (
        "Executor", "SerialExecutor", "ThreadPoolExecutor", "ProcessPoolExecutor",
        "FaultSpec", "Scenario", "RunSpec", "RunRecord", "Campaign", "builtin_campaign",
        "load_campaign")),
    ("repro.errors", ("ShardError", "ShardIncomplete")),
    ("repro.engine", ("ShardManifest", "merge_shards")),
    ("repro.api", ("Session",)),
    ("repro.errors", ("ObsError", "WorkerCrash")),
    ("repro.obs", ("Tracer", "MetricsRegistry", "ProgressReporter")),
    ("repro.results", ("aggregate", "diff_campaigns", "load_records")),
    ("repro.errors", ("ServeError", "JobNotFound", "QueueFull")),
    ("repro.serve", ("ServeClient", "RemoteJob", "ReproServer", "ServerThread")),
))
