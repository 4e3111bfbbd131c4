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
* the **benchmark harness** (:mod:`repro.bench`): four registered
  optimized/naive benchmark pairs (``kind="benchmark"``), one timing/RSS
  harness with stable JSON reports (``python -m repro bench`` →
  ``BENCH_PR4.json``), and a gate against a frozen bench baseline that
  pins each case's digest and each pair's speedup floor;
* the **observability layer** (:mod:`repro.obs`): a span tracer on the
  engine's monotonic timebase streaming crash-durable
  ``<name>.events.jsonl`` telemetry, always-on campaign metrics
  (counters/gauges/histograms, Prometheus-renderable), live progress
  reporting, and the ``repro trace`` / ``repro stats`` readers — off by
  default and provably free (the ``trace-overhead`` benchmark pins it);
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
from typing import Any

__version__ = "2.0.0"

#: Lazy export map (PEP 562): public name -> defining module.  `import
#: repro` stays cheap — protocols, engine, sketching, and the analysis
#: stack load on first attribute access, and the registry layer
#: (repro.registry) lazy-loads their registrations the same way.
_LAZY_EXPORTS = {
    # errors
    "ReproError": "repro.errors",
    "UnknownRegistryEntry": "repro.errors",
    "BitstreamError": "repro.errors",
    "CodecError": "repro.errors",
    "GraphError": "repro.errors",
    "ProtocolError": "repro.errors",
    "FrugalityViolation": "repro.errors",
    "DecodeError": "repro.errors",
    "RecognitionFailure": "repro.errors",
    "SketchFailure": "repro.errors",
    # graphs
    "LabeledGraph": "repro.graphs",
    "degeneracy": "repro.graphs",
    # model
    "Message": "repro.model",
    "OneRoundProtocol": "repro.model",
    "DecisionProtocol": "repro.model",
    "ReconstructionProtocol": "repro.model",
    "Referee": "repro.model",
    "RunReport": "repro.model",
    "FrugalityAuditor": "repro.model",
    "MultiRoundReferee": "repro.model",
    # protocols
    "DegeneracyReconstructionProtocol": "repro.protocols",
    "DegeneracyRecognitionProtocol": "repro.protocols",
    "ForestReconstructionProtocol": "repro.protocols",
    "GeneralizedDegeneracyProtocol": "repro.protocols",
    "BoundedDegreeProtocol": "repro.protocols",
    "PartitionConnectivityProtocol": "repro.protocols",
    # reductions
    "SquareReduction": "repro.reductions",
    "DiameterReduction": "repro.reductions",
    "TriangleReduction": "repro.reductions",
    # sketching
    "AGMConnectivityProtocol": "repro.sketching",
    # engine
    "Executor": "repro.engine",
    "SerialExecutor": "repro.engine",
    "ThreadPoolExecutor": "repro.engine",
    "ProcessPoolExecutor": "repro.engine",
    "FaultSpec": "repro.engine",
    "Scenario": "repro.engine",
    "RunSpec": "repro.engine",
    "RunRecord": "repro.engine",
    "Campaign": "repro.engine",
    "builtin_campaign": "repro.engine",
    "load_campaign": "repro.engine",
    "ShardError": "repro.errors",
    "ShardIncomplete": "repro.errors",
    "ShardManifest": "repro.engine",
    "merge_shards": "repro.engine",
    # fluent front door
    "Session": "repro.api",
    # observability
    "ObsError": "repro.errors",
    "WorkerCrash": "repro.errors",
    "Tracer": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "ProgressReporter": "repro.obs",
    # results
    "aggregate": "repro.results",
    "diff_campaigns": "repro.results",
    "load_records": "repro.results",
    # campaign service
    "ServeError": "repro.errors",
    "JobNotFound": "repro.errors",
    "QueueFull": "repro.errors",
    "ServeClient": "repro.serve",
    "RemoteJob": "repro.serve",
    "ReproServer": "repro.serve",
    "ServerThread": "repro.serve",
}

__all__ = ["__version__", *_LAZY_EXPORTS]


def __getattr__(name: str) -> Any:
    module = _LAZY_EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(module), name)
        globals()[name] = value  # cache: __getattr__ runs once per name
        return value
    # subpackages resolve as attributes too (`import repro; repro.engine`)
    try:
        return importlib.import_module(f"repro.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"repro.{name}":
            raise  # a real missing dependency inside the submodule
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted(__all__)
