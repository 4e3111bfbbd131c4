"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError`, so a
caller embedding the simulator can catch one type.  Sub-hierarchies mirror
the package layout: bit-level codec failures, graph-construction failures,
protocol/model violations, and decode failures on the referee side.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "BitstreamError",
    "BitstreamUnderflow",
    "CodecError",
    "GraphError",
    "InvalidVertexError",
    "NotInFamilyError",
    "ProtocolError",
    "FrugalityViolation",
    "DecodeError",
    "RecognitionFailure",
    "SketchFailure",
    "RegistryError",
    "UnknownRegistryEntry",
    "ResultsError",
    "SchemaError",
    "BaselineError",
    "StoreError",
    "BenchError",
    "ShardError",
    "ShardIncomplete",
    "ObsError",
    "WorkerCrash",
    "ServeError",
    "JobNotFound",
    "QueueFull",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class BitstreamError(ReproError):
    """Base class for bit-level I/O errors."""


class BitstreamUnderflow(BitstreamError):
    """Raised when a read requests more bits than the stream contains."""


class CodecError(BitstreamError):
    """Raised when an integer code cannot encode/decode the given value."""


class GraphError(ReproError):
    """Base class for labelled-graph construction and query errors."""


class InvalidVertexError(GraphError):
    """Raised when a vertex ID is outside ``1..n`` or an edge is invalid."""


class NotInFamilyError(GraphError):
    """Raised when a graph violates a family precondition (e.g. degeneracy > k)."""


class ProtocolError(ReproError):
    """Base class for model-level violations (wrong message count, etc.)."""


class FrugalityViolation(ProtocolError):
    """Raised by the auditor when a message exceeds the frugality budget."""

    def __init__(self, message: str, *, vertex: int | None = None, bits: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.vertex = vertex
        self.bits = bits
        self.budget = budget


class DecodeError(ProtocolError):
    """Raised when the referee cannot decode the received messages."""


class RecognitionFailure(DecodeError):
    """Raised by recognition protocols when the input graph is rejected.

    Carries the set of vertices that remained unprunable, which is the
    witness Algorithm 4 produces when the degeneracy bound fails.
    """

    def __init__(self, message: str, *, stuck_vertices: frozenset[int] = frozenset()):
        super().__init__(message)
        self.stuck_vertices = stuck_vertices


class RegistryError(ProtocolError):
    """Raised on bad registrations (duplicate names, colliding aliases)."""


class UnknownRegistryEntry(ProtocolError, KeyError):
    """A name was looked up in a registry that has no such entry.

    Subclasses :class:`ProtocolError` (so the pre-registry ``except``
    clauses keep working) *and* :class:`KeyError` (so dict-style
    ``except KeyError`` lookups keep working).  Carries the
    registry ``kind``, the failing ``name``, the nearest known entry as a
    ``suggestion`` (difflib; ``None`` when nothing is close), and the tuple
    of ``known`` canonical names.
    """

    # KeyError.__str__ would repr-quote the message; keep the plain text.
    __str__ = Exception.__str__

    def __init__(
        self,
        message: str,
        *,
        kind: str = "",
        name: str = "",
        suggestion: str | None = None,
        known: tuple[str, ...] = (),
    ):
        super().__init__(message)
        self.kind = kind
        self.name = name
        self.suggestion = suggestion
        self.known = known


class SketchFailure(ReproError):
    """Raised when a randomized sketch fails to produce a sample.

    AGM-style connectivity sketches are Monte Carlo; callers either retry
    with fresh randomness or accept one-sided error.  The failure is
    surfaced explicitly rather than returning a wrong answer silently.
    """


class ResultsError(ReproError):
    """Base class for the results layer (:mod:`repro.results`)."""


class SchemaError(ResultsError):
    """Raised when a JSONL record violates the campaign record schema."""


class BaselineError(ResultsError):
    """Raised when a frozen baseline file is missing or malformed."""


class StoreError(ResultsError):
    """Raised by the trend ledger (:mod:`repro.results.trends`): a
    malformed ``trends.jsonl`` entry anywhere but the torn tail, or a
    point asked of a campaign with no records."""


class BenchError(ReproError):
    """Raised by the benchmark harness (:mod:`repro.bench`) on bad suite
    arguments or a missing/malformed bench baseline."""


class ShardError(ProtocolError):
    """Raised by :mod:`repro.engine.shard` on invalid shard arguments, a
    missing/stale/mismatched checkpoint manifest, or an unmergeable shard
    set (incomplete or corrupt shard streams).

    Subclasses :class:`ProtocolError` so callers that already guard
    campaign execution with ``except ProtocolError`` (or ``ReproError``)
    keep working.
    """


class ShardIncomplete(ShardError):
    """A merge was attempted before every shard finished.

    Distinct from :class:`ShardError` so the CLI can map "not ready yet —
    run or resume the named shard" to exit code 1 (a gate-style failure)
    rather than 2 (a usage error).
    """


class ObsError(ReproError):
    """Raised by the observability layer (:mod:`repro.obs`): a malformed
    event in an ``.events.jsonl`` stream, a missing/invalid metrics
    snapshot, or tracing requested without a place to stream events to."""


class WorkerCrash(ObsError):
    """An executor worker died (or its pool broke) while running one spec.

    Wraps the bare pool exception with enough context — the spec content
    hash, the shard index, and the worker tag when known — that the raised
    error and the trace's ``worker-crash`` mark name the same run.  The
    original exception is chained as ``__cause__``.
    """

    def __init__(
        self,
        message: str,
        *,
        spec_hash: str = "",
        shard_index: int | None = None,
        worker: str | None = None,
    ):
        super().__init__(message)
        self.spec_hash = spec_hash
        self.shard_index = shard_index
        self.worker = worker


class ServeError(ReproError):
    """Raised by the campaign service (:mod:`repro.serve`): a malformed
    submission, an unreachable daemon, an HTTP error the client cannot
    express more precisely, or a corrupt job-store entry."""


class JobNotFound(ServeError):
    """A job ID was looked up in the job store that has no such entry.

    Carries ``job_id`` so callers (and the HTTP layer, which maps this to
    404) can name the missing job without parsing the message.
    """

    def __init__(self, message: str, *, job_id: str = ""):
        super().__init__(message)
        self.job_id = job_id


class QueueFull(ServeError):
    """A submission was refused because the service is at capacity.

    The HTTP layer maps this to 429 with a ``Retry-After`` header;
    ``retry_after`` is the server's estimate (seconds) of when capacity
    frees up, derived from the job wall-seconds histogram when one exists.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after
