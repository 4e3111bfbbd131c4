"""repro.serve — the campaign service (DESIGN.md §9).

A zero-dependency asyncio HTTP/JSON daemon wrapping the registry catalog
and the Session/Campaign pipeline: clients submit campaign jobs, poll
per-shard progress, tail-follow records as they become durable, fetch
group-by aggregates, and scrape Prometheus metrics — while the PR 5 shard
manifests make every job crash-resumable and the PR 6 metrics make the
fleet observable.

The moving parts, one module each:

* :mod:`repro.serve.store`  — the durable job store (atomic ``job.json``
  per job, per-job results dirs, restart recovery);
* :mod:`repro.serve.queue`  — admission control, priority classes, and
  the shard-pulling worker pool (``asyncio.to_thread`` around the
  engine's own sharded ``Campaign.run``);
* :mod:`repro.serve.http`   — the asyncio HTTP layer
  (:class:`ReproServer`, plus :class:`ServerThread` for in-process
  hosting in tests/examples/benchmarks);
* :mod:`repro.serve.client` — the stdlib-``http.client`` thin client
  (:class:`ServeClient` / :class:`RemoteJob`) the CLI verbs and
  :meth:`repro.api.Session.submit` use.

Quickstart (in-process)::

    from repro.serve import ServerThread, ServeClient

    with ServerThread("serve-data", workers=2, executor="thread") as srv:
        job = ServeClient(srv.url).submit(campaign="smoke", shards=2)
        print(job.wait()["state"])          # "done"

or as a daemon: ``python -m repro serve``, then ``repro submit smoke``.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.serve.client", ("ServeClient", "RemoteJob")),
    ("repro.serve.http", ("ReproServer", "ServerThread")),
    ("repro.serve.queue", ("Scheduler",)),
    ("repro.serve.store", ("JobStore",)),
    ("repro.serve.client", ("JOB_STATES", "TERMINAL_STATES", "PRIORITIES", "DEFAULT_URL")),
    ("repro.serve.http", ("DEFAULT_HOST", "DEFAULT_PORT")),
))
