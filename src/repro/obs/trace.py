"""The span-based tracer: structured, crash-durable, provably free when off.

A :class:`Tracer` turns execution structure into a flat JSONL event
stream: *spans* (a named interval with a parent, forming a tree), *marks*
(a named instant), and *metrics snapshots*.  Every timestamp comes from
``time.perf_counter`` — the **same function object** as
:data:`repro.model.referee.monotonic_clock` (this module must not import
the model layer, which imports back into the engine; the tests pin the
identity) — so span durations and the ``*_seconds`` fields in campaign
records share one timebase and reconcile exactly.

Three design rules keep tracing honest:

* **Durations are authoritative, offsets are not.**  A span event carries
  ``t0`` and ``dur`` (never a redundant ``t1``).  Spans emitted
  retroactively for work that happened elsewhere — a pool worker's
  referee phases, say — are re-anchored onto the emitter's timeline with
  their measured durations copied bit-for-bit, so per-phase totals equal
  the record's ``*_seconds`` sums *exactly* while offsets stay synthetic.
* **Single writer.**  Only the process that owns the event stream emits;
  workers report durations through their return values.  The stream
  goes through the ``write`` of
  :class:`repro.engine.shard.JsonlStreamWriter` (injected by the caller,
  never constructed here), which flushes every line whole, so a
  ``kill -9`` tears at most one line.
* **Off means free.**  :data:`NULL_TRACER` is the ambient default; its
  ``span()`` returns one reusable no-op context manager and every emit is
  a constant-time early return.  The ``trace-overhead`` benchmark pins
  this under a ``min_speedup`` floor.

Ambient use (the ``obs.span(...)`` form)::

    from repro import obs

    with obs.use_tracer(tracer):
        with obs.span("decode", n=64):
            ...

The ambient tracer is a :mod:`contextvars` variable: it does **not**
propagate into pool workers (fresh threads and processes start with the
default context), which is exactly the single-writer rule enforced by
construction.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import time
from collections.abc import Callable, Iterator, Mapping
from typing import Any, Protocol

__all__ = [
    "EVENT_VERSION",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "span",
    "mark",
]

#: Event-stream schema version; :mod:`repro.obs.events` validates against
#: it and refuses streams from a newer engine.
EVENT_VERSION = 1

#: The tracer's clock — ``time.perf_counter``, which is the very same
#: object :data:`repro.model.referee.monotonic_clock` names (pinned by
#: test): one timebase for spans and record ``*_seconds`` fields alike.
clock = time.perf_counter


class EventSink(Protocol):  # pragma: no cover - typing only
    """Anything events can be written to (``JsonlStreamWriter`` fits)."""

    def write(self, event: Mapping[str, Any]) -> None: ...

    def close(self) -> None: ...


class Span:
    """One open interval; a context manager that emits itself on exit.

    Attributes set via :meth:`set` (or the constructor) land in the
    event's ``attrs`` object.  The span id and parent id are assigned by
    the owning :class:`Tracer` when the span opens.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent", "attrs", "t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = 0
        self.parent: int | None = None
        self.attrs = attrs
        self.t0 = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; chainable inside the block."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.span_id = self._tracer._open(self)
        self.t0 = clock()
        return self

    def __exit__(self, *exc: object) -> None:
        dur = clock() - self.t0
        self._tracer._close(self, dur)


class Tracer:
    """Emits span/mark/metrics events to a sink and to subscribers.

    Parameters
    ----------
    writer:
        Optional event sink with ``write(dict)``/``close()`` — in the
        engine this is a :class:`repro.engine.shard.JsonlStreamWriter`
        on ``<results_dir>/<name>.events.jsonl`` (injected, so this
        module stays import-light).  ``None`` keeps events in-process
        (subscribers only) — how the live progress reporter runs without
        ``--trace``.
    subscribers:
        Callables invoked with every event dict after it is written.
        Subscriber exceptions propagate: a broken consumer should fail
        the run loudly, not silently drop telemetry.
    """

    #: Flipped on the null tracer; instrumentation sites guard on it.
    enabled = True

    def __init__(
        self,
        writer: EventSink | None = None,
        subscribers: Iterator[Callable[[dict], None]] | tuple = (),
    ) -> None:
        self._writer = writer
        self._subscribers = list(subscribers)
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    # ------------------------------------------------------------------ #
    # span lifecycle
    # ------------------------------------------------------------------ #

    def span(self, name: str, **attrs: Any) -> Span:
        """An open-on-enter, emit-on-exit span context manager."""
        return Span(self, name, attrs)

    def current_span_id(self) -> int | None:
        """The innermost open span's id (parent for retro emissions)."""
        return self._stack[-1] if self._stack else None

    def _open(self, span: Span) -> int:
        span.parent = self.current_span_id()
        span_id = next(self._ids)
        self._stack.append(span_id)
        return span_id

    def _close(self, span: Span, dur: float) -> None:
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()
        self.emit({
            "v": EVENT_VERSION,
            "kind": "span",
            "name": span.name,
            "span": span.span_id,
            "parent": span.parent,
            "t0": span.t0,
            "dur": dur,
            "attrs": dict(span.attrs),
        })

    def emit_span(
        self,
        name: str,
        t0: float,
        dur: float,
        *,
        parent: int | None = None,
        **attrs: Any,
    ) -> int:
        """Emit a span for an interval that already happened (retro span).

        ``dur`` is recorded exactly as given — the mechanism that lets the
        campaign copy a record's ``local_seconds`` into a ``local`` span
        bit-for-bit.  ``parent`` defaults to the innermost open span.
        Returns the new span's id so callers can parent children onto it.
        """
        span_id = next(self._ids)
        self.emit({
            "v": EVENT_VERSION,
            "kind": "span",
            "name": name,
            "span": span_id,
            "parent": self.current_span_id() if parent is None else parent,
            "t0": t0,
            "dur": dur,
            "attrs": attrs,
        })
        return span_id

    # ------------------------------------------------------------------ #
    # marks and metrics
    # ------------------------------------------------------------------ #

    def mark(self, name: str, **attrs: Any) -> None:
        """Emit a named instant (campaign-start, resume-replay, ...)."""
        self.emit({
            "v": EVENT_VERSION,
            "kind": "mark",
            "name": name,
            "t": clock(),
            "attrs": attrs,
        })

    def metrics_snapshot(self, metrics: Mapping[str, Any]) -> None:
        """Emit a metrics snapshot (the registry's ``to_dict`` payload)."""
        self.emit({
            "v": EVENT_VERSION,
            "kind": "metrics",
            "t": clock(),
            "metrics": dict(metrics),
        })

    def emit(self, event: dict) -> None:
        """Write one event to the sink, then fan out to subscribers."""
        if self._writer is not None:
            self._writer.write(event)
        for subscriber in self._subscribers:
            subscriber(event)

    def close(self) -> None:
        """Close the sink (subscribers need no teardown)."""
        if self._writer is not None:
            self._writer.close()


class _NullSpan:
    """The reusable do-nothing span the null tracer hands out."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The no-op tracer: every operation is a constant-time early return.

    This is the ambient default, so instrumentation sites cost one
    attribute load and a falsy check when tracing is off — the overhead
    contract the ``trace-overhead`` benchmark pins.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_span_id(self) -> None:
        return None

    def emit_span(self, name: str, t0: float, dur: float, *,
                  parent: int | None = None, **attrs: Any) -> int:
        return 0

    def mark(self, name: str, **attrs: Any) -> None:
        return None

    def metrics_snapshot(self, metrics: Mapping[str, Any]) -> None:
        return None

    def emit(self, event: dict) -> None:
        return None

    def close(self) -> None:
        return None


#: The shared no-op tracer (also the ambient default).
NULL_TRACER = NullTracer()

_current: contextvars.ContextVar["Tracer | NullTracer"] = contextvars.ContextVar(
    "repro-obs-tracer", default=NULL_TRACER
)


def current_tracer() -> "Tracer | NullTracer":
    """The ambient tracer (:data:`NULL_TRACER` unless :func:`use_tracer`)."""
    return _current.get()


@contextlib.contextmanager
def use_tracer(tracer: "Tracer | NullTracer"):
    """Install ``tracer`` as the ambient tracer for the ``with`` block.

    Context-local: pool workers (fresh threads/processes) never inherit
    it, which enforces the single-writer rule by construction.
    """
    token = _current.set(tracer)
    try:
        yield tracer
    finally:
        _current.reset(token)


def span(name: str, **attrs: Any):
    """``obs.span("phase", **attrs)`` — a span on the *ambient* tracer."""
    return current_tracer().span(name, **attrs)


def mark(name: str, **attrs: Any) -> None:
    """A mark on the ambient tracer."""
    current_tracer().mark(name, **attrs)
