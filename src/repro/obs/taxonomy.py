"""The span taxonomy: every span name the engine emits, as registry entries.

Spans are pluggable surface like protocols or benchmarks — downstream
tooling (``repro trace``, the future trend store) keys on their names —
so the names live in the registry (kind ``"span"``) where
``python -m repro list --kind span`` and the api-surface CI gate can see
them.  Each factory returns the span's contract: the attribute keys its
``attrs`` object carries.  Registering a new instrumentation site means
adding an entry here, which makes growing the taxonomy an explicit,
reviewed change exactly like growing any other registry.

Capability tags mark the emitting layer (``engine`` / ``model``) and
whether the span is *retro* — emitted after the fact with an
authoritative duration but a synthetic anchor (see
:mod:`repro.obs.trace`).
"""

from __future__ import annotations

from repro.registry import register

__all__: list[str] = []


@register("campaign", kind="span", capabilities=("engine",), params={},
          summary="Root span: one Campaign.run invocation, wall to wall.")
def _span_campaign() -> tuple[str, ...]:
    return ("campaign",)


@register("shard", kind="span", capabilities=("engine",), params={},
          summary="One shard's stream loop; an unsharded campaign is "
                  "shard 0 of 1.")
def _span_shard() -> tuple[str, ...]:
    return ("shard", "shards")


@register("run", kind="span", capabilities=("engine", "retro"), params={},
          summary="One landed record; dur is the record's wall_seconds "
                  "(cache-load time for hits).")
def _span_run() -> tuple[str, ...]:
    return ("spec", "scenario", "protocol", "n", "seed", "status", "cached",
            "worker", "busy_seconds", "landed_seconds")


@register("setup", kind="span", capabilities=("model", "retro"), params={},
          summary="Graph + protocol construction before the round "
                  "(timing.setup_seconds).")
def _span_setup() -> tuple[str, ...]:
    return ()


@register("local", kind="span", capabilities=("model", "retro"), params={},
          summary="The local phase: every node computes its message "
                  "(timing.local_seconds).")
def _span_local() -> tuple[str, ...]:
    return ("protocol", "n")


@register("referee", kind="span", capabilities=("model", "retro"), params={},
          summary="Between the phases: fault injection and delivery "
                  "shuffling (timing.referee_seconds).")
def _span_referee() -> tuple[str, ...]:
    return ("protocol", "n")


@register("global", kind="span", capabilities=("model", "retro"), params={},
          summary="The global phase: the referee decodes the messages "
                  "(timing.global_seconds).")
def _span_global() -> tuple[str, ...]:
    return ("protocol", "n")
