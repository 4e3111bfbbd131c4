"""repro.obs — structured tracing, metrics, and live progress.

The observability substrate for the whole execution stack (DESIGN.md §8):

* :mod:`repro.obs.trace` — the span tracer.  ``obs.span("phase",
  **attrs)`` opens a span on the ambient tracer; the engine streams
  events to ``<results_dir>/<name>.events.jsonl`` through the same
  writer the record streams use (flushed per event, fsynced once per 64
  events), so traces survive ``kill -9``.  Off by default and provably
  free: the ambient default is :data:`NULL_TRACER`, whose every
  operation is a constant-time no-op (pinned by the ``trace-overhead``
  benchmark).
* :mod:`repro.obs.metrics` — counters / gauges / streaming histograms,
  snapshotted into :class:`~repro.engine.campaign.CampaignResult`, the
  shard manifest, ``<name>.metrics.json``, and the event stream.
* :mod:`repro.obs.progress` — a live progress reporter (rate, ETA,
  per-shard completion) driven by the same event bus, TTY-aware.
* :mod:`repro.obs.events` — the event schema: strict validation and
  torn-tail-tolerant loading (lazy: pulls in the engine's shard I/O).
* :mod:`repro.obs.report` — ``repro trace``'s phase breakdown, critical
  path, and slowest-run analysis (lazy: pulls in the analysis tables).
* :mod:`repro.obs.taxonomy` — every span name, registered under registry
  kind ``"span"`` so the taxonomy is introspectable and CI-pinned.

Import discipline: this package's eager modules (trace, metrics,
progress) depend only on the stdlib and :mod:`repro.errors` /
:mod:`repro.registry`, because the *model and engine layers import the
tracer* — the event sink is injected by the campaign, never constructed
here, which is what keeps the dependency arrow pointing one way.
"""

from __future__ import annotations

import importlib
from typing import Any

from repro.obs.metrics import MetricsRegistry, load_metrics_file, render_prometheus
from repro.obs.progress import ProgressReporter
from repro.obs.trace import (
    EVENT_VERSION,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    mark,
    span,
    use_tracer,
)

__all__ = [
    "EVENT_VERSION",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "current_tracer",
    "use_tracer",
    "span",
    "mark",
    "MetricsRegistry",
    "render_prometheus",
    "load_metrics_file",
    "ProgressReporter",
    # lazy (see __getattr__): repro.obs.events / repro.obs.report names
    "events_path",
    "metrics_path",
    "validate_event",
    "load_events",
    "load_partial_events",
    "trace_report_data",
    "render_trace_report",
]

_LAZY = {
    "events_path": "repro.obs.events",
    "metrics_path": "repro.obs.events",
    "validate_event": "repro.obs.events",
    "load_events": "repro.obs.events",
    "load_partial_events": "repro.obs.events",
    "trace_report_data": "repro.obs.report",
    "render_trace_report": "repro.obs.report",
}


def __getattr__(name: str) -> Any:
    # PEP 562: events/report import the engine/analysis layers, which
    # import this package — resolving them lazily breaks the cycle.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
