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

import json
from collections.abc import Mapping
from typing import Any

from repro import _lazy_exports

#: Bumped whenever record semantics change, so stale cache entries miss.
#: v2: records carry a top-level ``spec_version`` stamp (repro.results
#: validates against it and migrates v1 streams on load).  It lives here,
#: not in :mod:`~repro.engine.scenario` (which re-exports it), so the read
#: side can check a record's version without loading the engine.
SPEC_VERSION = 2


def spec_content_hash(spec: Mapping[str, Any]) -> str:
    """Content hash of a spec dict in :meth:`RunSpec.to_dict` form.

    The sha256 of ``{"v": SPEC_VERSION, "spec": <spec without "scenario">}``
    dumped with sorted keys and compact separators, cut to 24 hex digits.
    :meth:`RunSpec.content_hash` and the read side (:mod:`repro.results`)
    both call this, so a stored record's spec hashes to its run's cache key
    without loading the engine.  The record validator requires every spec
    and fault key, so a stored spec dict is already in canonical form.
    """
    import hashlib  # deferred: `repro report` hashes no spec

    physical = {key: value for key, value in spec.items() if key != "scenario"}
    payload = json.dumps(
        {"v": SPEC_VERSION, "spec": physical}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.engine.executor", (
        "Executor", "SerialExecutor", "ThreadPoolExecutor", "ProcessPoolExecutor",
        "EXECUTOR_KINDS", "default_jobs", "make_executor")),
    ("repro.engine.faults", ("FaultSpec", "FaultInjector", "FaultCounters")),
    ("repro.engine.scenario", (
        "Scenario", "RunSpec", "RunRecord", "execute_run", "output_digest")),
    ("repro.engine.campaign", (
        "Campaign", "CampaignResult", "builtin_campaign", "load_campaign")),
    ("repro.engine.shard", (
        "MANIFEST_VERSION", "JsonlStreamWriter", "ShardManifest",
        "load_partial_records", "manifest_path", "merge_shards",
        "shard_done_path", "shard_of", "shard_specs", "shard_stream_path")),
))
