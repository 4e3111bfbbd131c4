"""Execution backends: batch local-phase calls, fan out whole runs.

The referee model is embarrassingly parallel at two granularities:

* **within one round** — ``Γ^l_n(i, N(i))`` is a pure function per vertex,
  so the n local calls can be evaluated in batches on any backend
  (:meth:`Executor.map_local`); the referee then re-indexes by ID exactly
  as Definition 1 prescribes, so the outcome is independent of which
  worker evaluated which batch;
* **across runs** — a campaign is a grid of independent ``(graph,
  protocol, seed)`` runs; :meth:`Executor.map` fans complete runs out to
  workers (:mod:`repro.engine.campaign` sends picklable
  :class:`~repro.engine.scenario.RunSpec` values, so process workers
  rebuild graphs locally instead of deserializing them).

Three backends share the :class:`Executor` interface:

* :class:`SerialExecutor` — plain loop; the reference semantics.  A serial
  engine run is bit-for-bit identical to ``Referee.run`` (tested).
* :class:`ThreadPoolExecutor` — threads; useful when the local/global
  functions release the GIL (native extensions) or for IO-bound result
  sinks, and as a sanity point between serial and processes.
* :class:`ProcessPoolExecutor` — processes; the backend that actually
  saturates cores on pure-Python protocol code.

All three preserve input order in their results, which keeps campaign
output deterministic regardless of completion order.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from abc import ABC, abstractmethod
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from typing import Any, TypeVar

from repro.errors import ProtocolError
from repro.graphs.labeled import LabeledGraph
from repro.model.message import Message
from repro.model.protocol import OneRoundProtocol

try:  # stdlib, but absent on exotic platforms — fall back to pickling
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "Executor",
    "ObservedResult",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "SharedGraphRef",
    "default_jobs",
    "make_executor",
    "EXECUTOR_KINDS",
]

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """Worker count when the caller does not choose: one per visible core."""
    return max(1, os.cpu_count() or 1)


def _chunk_ids(ids: Sequence[int], n_chunks: int) -> list[list[int]]:
    """Split ``ids`` into at most ``n_chunks`` contiguous, ordered batches."""
    n_chunks = max(1, min(n_chunks, len(ids)))
    size, extra = divmod(len(ids), n_chunks)
    chunks, start = [], 0
    for c in range(n_chunks):
        end = start + size + (1 if c < extra else 0)
        chunks.append(list(ids[start:end]))
        start = end
    return chunks


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


class SharedGraphRef:
    """A pickle-free handle to a graph published in shared memory.

    The process executor's :meth:`Executor.map_local` used to pickle the
    whole :class:`LabeledGraph` into every batch — ``jobs × batches`` round
    trips through ``pickle`` for the same adjacency.  Instead the parent
    serializes the adjacency once into a ``multiprocessing.shared_memory``
    block (a flat int64 degree table followed by the concatenated,
    sorted neighbor lists — stdlib ``array``, no numpy), and batches carry
    only this tiny named handle.  Each worker attaches, rebuilds the graph
    once, and caches it by block name, so n batches cost one rebuild.

    The parent owns the block's lifetime: it unlinks after the map
    completes.  Workers copy out of the buffer before closing, so the
    cached graph never dangles into unmapped memory.
    """

    __slots__ = ("name", "n", "m", "n_neighbors")

    #: Per-worker cache of rebuilt graphs, keyed by shared-memory block
    #: name (unique per publish).  Bounded: referee rounds reuse one graph,
    #: so a worker only ever needs the most recent few.
    _CACHE: dict[str, LabeledGraph] = {}
    _CACHE_MAX = 4

    def __init__(self, name: str, n: int, m: int, n_neighbors: int) -> None:
        self.name = name
        self.n = n
        self.m = m
        self.n_neighbors = n_neighbors

    def __getstate__(self) -> tuple[str, int, int, int]:
        return (self.name, self.n, self.m, self.n_neighbors)

    def __setstate__(self, state: tuple[str, int, int, int]) -> None:
        self.name, self.n, self.m, self.n_neighbors = state

    @classmethod
    def publish(cls, g: LabeledGraph) -> "tuple[SharedGraphRef, Any]":
        """Serialize ``g`` into a fresh shared-memory block.

        Returns ``(ref, shm)``; the caller must ``shm.close()`` and
        ``shm.unlink()`` once every consumer is done.
        """
        degrees = array("q")
        neighbors = array("q")
        for v in g.vertices():
            ns = sorted(g.neighbors(v))
            degrees.append(len(ns))
            neighbors.extend(ns)
        deg_bytes = degrees.tobytes()
        nb_bytes = neighbors.tobytes()
        shm = _shared_memory.SharedMemory(
            create=True, size=max(1, len(deg_bytes) + len(nb_bytes))
        )
        shm.buf[: len(deg_bytes)] = deg_bytes
        shm.buf[len(deg_bytes): len(deg_bytes) + len(nb_bytes)] = nb_bytes
        return cls(shm.name, g.n, g.m, len(neighbors)), shm

    def materialize(self) -> LabeledGraph:
        """Attach, rebuild the :class:`LabeledGraph`, and cache it."""
        cached = self._CACHE.get(self.name)
        if cached is not None:
            return cached
        shm = _shared_memory.SharedMemory(name=self.name)
        try:
            # With a spawn start method each worker has its own resource
            # tracker, and on 3.11 an *attach* registers with it — the
            # worker's tracker would then unlink the parent-owned block at
            # worker exit, so untrack our attachment there.  Under fork
            # (and in the publishing process itself) the tracker cache is
            # shared with the creator, where unregistering here would
            # erase the creator's own registration — leave it alone.
            try:
                import multiprocessing

                if multiprocessing.get_start_method(allow_none=True) == "spawn":
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals moved
                pass
            degrees = array("q")
            degrees.frombytes(bytes(shm.buf[: self.n * 8]))
            neighbors = array("q")
            neighbors.frombytes(
                bytes(shm.buf[self.n * 8: (self.n + self.n_neighbors) * 8])
            )
        finally:
            shm.close()
        adj: list[set[int]] = [set()]
        pos = 0
        for d in degrees:
            adj.append(set(neighbors[pos: pos + d]))
            pos += d
        g = LabeledGraph.__new__(LabeledGraph)
        g._n = self.n
        g._adj = adj
        g._m = self.m
        while len(self._CACHE) >= self._CACHE_MAX:
            self._CACHE.pop(next(iter(self._CACHE)))
        self._CACHE[self.name] = g
        return g


def _local_batch(
    args: "tuple[OneRoundProtocol, LabeledGraph | SharedGraphRef, list[int]]"
) -> list[tuple[int, Message]]:
    """Evaluate one batch of local calls (module-level: picklable)."""
    protocol, g, ids = args
    if isinstance(g, SharedGraphRef):
        g = g.materialize()
    return [(i, protocol.local(g.n, i, g.neighbors(i))) for i in ids]


class Executor(ABC):
    """Common interface over the serial, thread, and process backends."""

    #: Backend name used by the CLI and in campaign records.
    kind: str = "executor"

    #: Worker count (1 for the serial backend).
    jobs: int = 1

    @abstractmethod
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, returning results in input order.

        Exceptions raised by ``fn`` propagate to the caller (the first one,
        for pooled backends).
        """

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Yield results in input order; override to yield as they finish.

        The streaming primitive sharded campaigns build on — with a
        streaming override, each record can be made durable the moment it
        exists instead of after the whole batch.  This *base*
        implementation is a plain ``iter(self.map(...))`` — correct for
        any subclass but fully eager, so custom executors that want
        crash-durability mid-batch must override it (all three builtin
        backends do: the serial backend runs one item per ``next``, the
        pooled ones submit everything up front and yield lazily).
        """
        return iter(self.map(fn, items))

    def imap_observed(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> Iterator[ObservedResult]:
        """Like :meth:`imap`, yielding ``(result, worker, seconds)`` triples.

        The observability variant the campaign layer streams through: each
        yield is an :class:`ObservedResult` carrying the worker tag
        (``pid:thread-name``) and the in-worker busy time, measured on the
        shared ``perf_counter`` timebase.  Built on :meth:`imap`, so it
        inherits whatever laziness/durability the backend provides — a
        subclass overriding only ``imap`` gets observation for free.
        """
        observed = partial(_observed_call, fn)
        return self.imap(observed, items)

    def map_local(
        self, protocol: OneRoundProtocol, g: LabeledGraph, *, batches_per_job: int = 4
    ) -> list[tuple[int, Message]]:
        """The whole local phase of one round, as ``(id, message)`` pairs.

        Vertices are split into contiguous ID-ordered batches (a few per
        worker so stragglers rebalance); results are concatenated back in
        ID order, so every backend returns the exact list the serial loop
        produces.
        """
        ids = list(g.vertices())
        if not ids:
            return []
        chunks = _chunk_ids(ids, self.jobs * batches_per_job)
        results = self.map(_local_batch, [(protocol, g, chunk) for chunk in chunks])
        return [pair for batch in results for pair in batch]

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

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        # Truly lazy: each item runs only when consumed, so a crash while
        # streaming leaves earlier results durable and later ones unrun.
        return (fn(item) for item in items)

    def map_local(
        self, protocol: OneRoundProtocol, g: LabeledGraph, *, batches_per_job: int = 4
    ) -> list[tuple[int, Message]]:
        # One batch, no chunking bookkeeping — identical to Referee's loop.
        return _local_batch((protocol, g, list(g.vertices())))


class _PooledExecutor(Executor):
    """Shared plumbing for the two concurrent.futures-backed executors."""

    _pool_factory: Callable[..., concurrent.futures.Executor]

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ProtocolError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or default_jobs()
        self._pool: concurrent.futures.Executor | None = None

    def _ensure_pool(self) -> concurrent.futures.Executor:
        if self._pool is None:
            self._pool = type(self)._pool_factory(max_workers=self.jobs)
        return self._pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return list(self._ensure_pool().map(fn, items))

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
    _pool_factory = concurrent.futures.ThreadPoolExecutor


class ProcessPoolExecutor(_PooledExecutor):
    """Process-backed executor — the backend that saturates cores.

    Work functions and their arguments must be picklable; the campaign
    layer sends :class:`~repro.engine.scenario.RunSpec` values (graphs are
    rebuilt inside the worker), and :meth:`Executor.map_local` sends
    ``(protocol, graph, ids)`` batches.
    """

    kind = "process"
    _pool_factory = concurrent.futures.ProcessPoolExecutor

    def map_local(
        self, protocol: OneRoundProtocol, g: LabeledGraph, *, batches_per_job: int = 4
    ) -> list[tuple[int, Message]]:
        """Local phase with pickle-free graph handoff.

        The graph is published once to shared memory and every batch
        carries a :class:`SharedGraphRef` instead of the graph itself —
        results are the exact list the base implementation produces (same
        batching, same order).  Falls back to the pickling path when
        shared memory is unavailable or publishing fails (e.g. ``/dev/shm``
        exhausted).
        """
        if _shared_memory is None:
            return super().map_local(protocol, g, batches_per_job=batches_per_job)
        ids = list(g.vertices())
        if not ids:
            return []
        try:
            ref, shm = SharedGraphRef.publish(g)
        except OSError:  # pragma: no cover - shm exhaustion
            return super().map_local(protocol, g, batches_per_job=batches_per_job)
        try:
            chunks = _chunk_ids(ids, self.jobs * batches_per_job)
            results = self.map(
                _local_batch, [(protocol, ref, chunk) for chunk in chunks]
            )
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        return [pair for batch in results for pair in batch]


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
