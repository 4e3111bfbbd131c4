"""repro.engine — parallel execution and scenario campaigns.

Across a study every ``(graph, protocol, seed)`` run is independent, so
campaigns fan whole runs out across cores; one round inside a run stays
the plain loop of :meth:`~repro.model.referee.Referee.run`.  This package
provides:

* :mod:`~repro.engine.executor` — the :class:`Executor` interface with
  serial, thread-pool, and process-pool backends that campaigns use to
  fan out whole runs;
* :mod:`~repro.engine.faults` — dropped / duplicated / bit-flipped
  messages on the node→referee link, so protocol robustness is a
  measurable scenario rather than an assumption;
* :mod:`~repro.engine.scenario` — declarative :class:`Scenario` grids
  (graph family × sizes × protocol × seeds × referee options) expanded
  into small picklable :class:`RunSpec` records, plus the worker-side
  :func:`execute_run`;
* :mod:`~repro.engine.campaign` — the :class:`Campaign` runner: grid
  expansion, content-hash result caching, durable JSONL streaming under
  ``results/`` (fsynced once per 64 fresh records), and the builtin
  campaigns the CLI exposes as ``python -m repro campaign <name>``;
* :mod:`~repro.engine.shard` — sharded, checkpointed execution: one
  campaign split across worker processes / machines / CI matrix jobs by
  deterministic content-hash assignment, an atomic checkpoint manifest,
  crash-tolerant per-shard streams with completion marks, and the
  :func:`merge_shards` step (CLI ``python -m repro merge``) that
  reassembles the canonical JSONL.  ``Campaign.run(shards=, shard_index=,
  resume=)`` / ``Session.shard(n).resume()`` are the front doors.

Reproducibility contract: every random draw anywhere in the engine comes
from a per-run ``random.Random`` seeded by the spec; the global ``random``
module is never read or written (``tests/engine/test_no_global_rng.py``
enforces this), so a campaign's JSONL is byte-stable modulo timing across
backends, machines, and worker schedules.
"""

from repro.engine.executor import (
    EXECUTOR_KINDS,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    default_jobs,
    make_executor,
)
from repro.engine.faults import FaultCounters, FaultInjector, FaultSpec
from repro.engine.scenario import (
    RunRecord,
    RunSpec,
    Scenario,
    execute_run,
    output_digest,
)
from repro.engine.campaign import (
    Campaign,
    CampaignResult,
    builtin_campaign,
    load_campaign,
)
from repro.engine.shard import (
    MANIFEST_VERSION,
    JsonlStreamWriter,
    ShardManifest,
    load_partial_records,
    manifest_path,
    merge_shards,
    shard_done_path,
    shard_of,
    shard_specs,
    shard_stream_path,
)


__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "EXECUTOR_KINDS",
    "default_jobs",
    "make_executor",
    "FaultSpec",
    "FaultInjector",
    "FaultCounters",
    "Scenario",
    "RunSpec",
    "RunRecord",
    "execute_run",
    "output_digest",
    "Campaign",
    "CampaignResult",
    "builtin_campaign",
    "load_campaign",
    "MANIFEST_VERSION",
    "JsonlStreamWriter",
    "ShardManifest",
    "load_partial_records",
    "manifest_path",
    "merge_shards",
    "shard_done_path",
    "shard_of",
    "shard_specs",
    "shard_stream_path",
]
