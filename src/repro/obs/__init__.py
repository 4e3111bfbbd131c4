"""repro.obs — structured tracing, metrics, and live progress.

The observability substrate for the whole execution stack (DESIGN.md §8):

* :mod:`repro.obs.trace` — the span tracer.  ``obs.span("phase",
  **attrs)`` opens a span on the ambient tracer; the engine streams
  events to ``<results_dir>/<name>.events.jsonl`` through the same
  writer the record streams use (flushed per event, fsynced once per 64
  events), so traces survive ``kill -9``.  Off by default and provably
  free: the ambient default is :data:`NULL_TRACER`, whose every
  operation is a constant-time no-op (pinned by the ``trace-overhead``
  speedup floor).
* :mod:`repro.obs.metrics` — counters / gauges / streaming histograms,
  snapshotted into :class:`~repro.engine.campaign.CampaignResult`, the
  shard manifest, ``<name>.metrics.json``, and the event stream.
* :mod:`repro.obs.progress` — a live progress reporter (rate, ETA,
  per-shard completion) driven by the same event bus, TTY-aware.
* :mod:`repro.obs.events` — the event schema: strict validation and
  torn-tail-tolerant loading (pulls in the engine's shard I/O).
* :mod:`repro.obs.report` — ``repro trace``'s phase breakdown, critical
  path, and slowest-run analysis (pulls in the analysis tables).
* :mod:`repro.obs.taxonomy` — every span name, registered under registry
  kind ``"span"`` so the taxonomy is introspectable and CI-pinned.

Import discipline: the package is PEP 562-lazy, so each name loads only
its own module.  The modules the model and engine layers import (trace,
metrics, progress) depend only on the stdlib and :mod:`repro.errors` /
:mod:`repro.registry` — the event sink is injected by the campaign,
never constructed here, which is what keeps the dependency arrow
pointing one way; events and report import the engine and analysis
layers, which import this package, and resolving them lazily breaks
that cycle.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.obs.trace", (
        "EVENT_VERSION", "Tracer", "NullTracer", "NULL_TRACER", "Span", "current_tracer",
        "use_tracer", "span", "mark")),
    ("repro.obs.metrics", ("MetricsRegistry", "render_prometheus", "load_metrics_file")),
    ("repro.obs.progress", ("ProgressReporter",)),
    ("repro.obs.events", (
        "events_path", "metrics_path", "validate_event", "load_partial_events")),
    ("repro.obs.report", ("trace_report_data", "render_trace_report")),
))
