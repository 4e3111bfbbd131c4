"""Execution backends: fan independent runs out to workers.

A campaign is a grid of independent ``(graph, protocol, seed)`` runs;
:meth:`Executor.imap` fans complete runs out to workers
(:mod:`repro.engine.campaign` sends picklable
:class:`~repro.engine.scenario.RunSpec` values, so process workers rebuild
graphs locally instead of deserializing them).  One round inside a run is
always the plain loop of :meth:`repro.model.referee.Referee.run`.

Three backends share the :class:`Executor` interface:

* :class:`SerialExecutor` — plain loop; the reference semantics.
* :class:`ThreadPoolExecutor` — threads; GIL-bound on pure-Python protocol
  code, so useful for IO-bound result sinks and as a sanity point between
  serial and processes.
* :class:`ProcessPoolExecutor` — processes; the backend that actually
  saturates cores on pure-Python protocol code.

All three preserve input order in their results, which keeps campaign
output deterministic regardless of completion order.
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from typing import TYPE_CHECKING, Any, TypeVar

from repro.errors import ProtocolError

if TYPE_CHECKING:  # imported when the first pool is made
    import concurrent.futures

__all__ = [
    "Executor",
    "ObservedResult",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "default_jobs",
    "make_executor",
    "EXECUTOR_KINDS",
]

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """Worker count when the caller does not choose: one per visible core."""
    return max(1, os.cpu_count() or 1)


def _worker_tag() -> str:
    """Identify the worker a call ran on, across every backend.

    ``pid:thread-name`` distinguishes process workers (different pids),
    thread workers (same pid, different thread names), and the serial
    backend (same pid, MainThread).
    """
    return f"{os.getpid()}:{threading.current_thread().name}"


def _observed_call(fn: Callable[[T], R], item: T) -> "ObservedResult":
    """Run ``fn(item)`` and report where and for how long (picklable).

    Module-level (not a closure) so process pools can ship it; the clock
    is ``time.perf_counter`` — the same timebase as
    :data:`repro.model.referee.monotonic_clock` — measured *inside* the
    worker, so the duration is busy-time, not queue time.
    """
    t0 = time.perf_counter()
    result = fn(item)
    return ObservedResult(result, _worker_tag(), time.perf_counter() - t0)


class ObservedResult:
    """One :meth:`Executor.imap_observed` yield: result + provenance."""

    __slots__ = ("result", "worker", "seconds")

    def __init__(self, result: Any, worker: str, seconds: float) -> None:
        self.result = result
        self.worker = worker
        self.seconds = seconds

    def __iter__(self) -> Iterator[Any]:  # supports tuple unpacking
        return iter((self.result, self.worker, self.seconds))

    def __repr__(self) -> str:
        return f"ObservedResult(worker={self.worker!r}, seconds={self.seconds:.6f})"


class Executor(ABC):
    """Common interface over the serial, thread, and process backends."""

    #: Backend name used by the CLI and in campaign records.
    kind: str = "executor"

    #: Worker count (1 for the serial backend).
    jobs: int = 1

    @abstractmethod
    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Yield ``fn(item)`` for every item, in input order.

        The streaming primitive sharded campaigns build on: each record
        can be made durable the moment it exists instead of after the
        whole batch.  The serial backend runs one item per ``next``; the
        pooled ones submit everything up front and yield lazily.
        Exceptions raised by ``fn`` propagate to the caller (the first
        one, for pooled backends).
        """

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, returning results in input order."""
        return list(self.imap(fn, items))

    def imap_observed(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> Iterator[ObservedResult]:
        """Like :meth:`imap`, yielding ``(result, worker, seconds)`` triples.

        The observability variant the campaign layer streams through: each
        yield is an :class:`ObservedResult` carrying the worker tag
        (``pid:thread-name``) and the in-worker busy time, measured on the
        shared ``perf_counter`` timebase.  Built on :meth:`imap`, so it
        inherits whatever laziness/durability the backend provides.
        """
        observed = partial(_observed_call, fn)
        return self.imap(observed, items)

    def close(self, *, cancel_pending: bool = False) -> None:
        """Release pooled workers; the serial backend has nothing to do.

        ``cancel_pending`` discards work that has not started yet before
        joining the in-flight workers — the shutdown-hygiene path for
        KeyboardInterrupt and daemon teardown, where chewing through a
        queued backlog just to exit would hang the process (and, for
        process pools, leave children alive well past the interrupt).
        In-flight tasks always run to completion either way: workers are
        joined, never orphaned.
        """

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type: object = None, *exc: object) -> None:
        # An exceptional exit (KeyboardInterrupt, a crashed run) must not
        # execute the rest of a queued backlog before releasing workers.
        self.close(cancel_pending=exc_type is not None)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialExecutor(Executor):
    """The reference backend: a plain in-process loop."""

    kind = "serial"
    jobs = 1

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        # Truly lazy: each item runs only when consumed, so a crash while
        # streaming leaves earlier results durable and later ones unrun.
        return (fn(item) for item in items)


class _PooledExecutor(Executor):
    """Shared plumbing for the two concurrent.futures-backed executors."""

    #: The ``concurrent.futures`` pool class, looked up when the first pool
    #: is made, so a serial campaign imports neither ``concurrent.futures``
    #: nor ``multiprocessing``.
    _pool_class: str

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ProtocolError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or default_jobs()
        self._pool: concurrent.futures.Executor | None = None

    def _ensure_pool(self) -> concurrent.futures.Executor:
        if self._pool is None:
            import concurrent.futures

            self._pool = getattr(concurrent.futures, self._pool_class)(
                max_workers=self.jobs)
        return self._pool

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        # concurrent.futures submits everything eagerly and yields in
        # input order as results complete — lazy consumption, full fan-out.
        return self._ensure_pool().map(fn, items)

    def close(self, *, cancel_pending: bool = False) -> None:
        # Thread-safe and idempotent: concurrent.futures' shutdown may be
        # called from any thread, any number of times — the serve daemon
        # closes active executors from its event loop while the owning
        # worker thread is still iterating results.
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=cancel_pending)


class ThreadPoolExecutor(_PooledExecutor):
    """Thread-backed executor (GIL-bound for pure-Python local functions)."""

    kind = "thread"
    _pool_class = "ThreadPoolExecutor"


class ProcessPoolExecutor(_PooledExecutor):
    """Process-backed executor — the backend that saturates cores.

    Work functions and their arguments must be picklable; the campaign
    layer sends :class:`~repro.engine.scenario.RunSpec` values (graphs are
    rebuilt inside the worker).
    """

    kind = "process"
    _pool_class = "ProcessPoolExecutor"


#: CLI-selectable backends by name.
EXECUTOR_KINDS: dict[str, type[Executor]] = {
    "serial": SerialExecutor,
    "thread": ThreadPoolExecutor,
    "process": ProcessPoolExecutor,
}


def make_executor(kind: str, jobs: int | None = None) -> Executor:
    """Instantiate a backend by name (``serial``/``thread``/``process``).

    ``jobs`` is validated for every kind; the serial backend always runs
    with one worker (callers wanting parallelism must pick a pooled kind).
    """
    try:
        cls = EXECUTOR_KINDS[kind]
    except KeyError:
        raise ProtocolError(
            f"unknown executor kind {kind!r}; known: {', '.join(EXECUTOR_KINDS)}"
        ) from None
    if jobs is not None and jobs < 1:
        raise ProtocolError(f"jobs must be >= 1, got {jobs}")
    if cls is SerialExecutor:
        return cls()
    return cls(jobs)
