"""The builtin benchmark suite: sketching/bits hot paths + Session campaigns.

Each benchmark is a registered factory ``(scale: float = 1.0) -> BenchCase``:
inputs are built at factory time (off the clock) from deterministic
:func:`~repro.sketching.field.splitmix64` chains — never the global
``random`` module — so ``ops`` / ``bits`` / ``digest`` are pure functions
of ``scale`` and the frozen bench baseline pins them on any machine.

Two kinds of case live here:

* **micro** — the tight loops the hot-path work targets (L0 sampler
  updates, parameter derivation, bit packing).  Each has a ``-naive``
  twin running the pre-optimization reference implementation on the same
  inputs; the harness reports ``speedups[<name>]`` and the bench baseline
  declares floors for them.  The twins double as parity witnesses: both
  members of a pair must produce the same ``digest``.
* **campaign** — real end-to-end loads driven through
  :class:`repro.api.Session`, digesting the run records (spec content
  hashes + output digests), so a hot-path change that altered *what* a
  protocol computes fails the gate even if every microbench still agrees.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.bench.harness import BenchCase
from repro.bits.writer import BitWriter
from repro.registry import register
from repro.sketching.connectivity import sketch_spanning_forest
from repro.sketching.field import (
    MERSENNE61,
    derive_params,
    derive_params_block,
    fadd,
    fmul,
    fpow,
    splitmix64,
)
from repro.sketching.l0sampler import L0Sampler, L0SamplerParams

_SEED = 0xBEC4E12011  # arbitrary fixed public seed for all builtin inputs


def _digest(payload: Any) -> str:
    """Stable hash of a JSON-able deterministic result."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _scaled(base: int, scale: float, *, lo: int) -> int:
    return max(lo, int(base * scale))


# --------------------------------------------------------------------- #
# L0 sampler update loop (the headline microbench)
# --------------------------------------------------------------------- #


def _l0_inputs(scale: float) -> tuple[L0SamplerParams, list[tuple[int, int]]]:
    """One sampler's params plus a splitmix-derived update stream."""
    n = _scaled(96, scale, lo=16)
    m = n * (n - 1) // 2
    params = L0SamplerParams.derive(m, _SEED, 1)
    count = _scaled(4000, scale, lo=64)
    updates = []
    x = _SEED
    for _ in range(count):
        x = splitmix64(x)
        updates.append((x % m, 1 if x & 1 else -1))
    return params, updates


def _reference_l0_update(sampler: L0Sampler, index: int, delta: int) -> None:
    """The pre-optimization update: one field-call chain per surviving level."""
    deepest = sampler._level_of(index)
    for lvl in range(deepest + 1):
        sketch = sampler.sketches[lvl]
        if not 0 <= index < sketch.m:
            raise ValueError(f"index {index} outside 0..{sketch.m - 1}")
        sketch.c0 += delta
        sketch.c1 += index * delta
        sketch.c2 = fadd(sketch.c2, fmul(delta % MERSENNE61, fpow(sketch.z, index + 1)))


@register("l0-update", kind="benchmark", capabilities=("micro", "sketching"),
          summary="L0 sampler update loop (optimized single-pow fan-out).")
def _bench_l0_update(scale: float = 1.0) -> BenchCase:
    params, updates = _l0_inputs(scale)

    def op():
        sampler = L0Sampler(params)
        sampler.update_many(updates)
        return {"ops": len(updates), "digest": _digest(sampler.counters())}

    return BenchCase(op=op, meta={"m": params.m, "levels": params.levels,
                                  "updates": len(updates)})


@register("l0-update-naive", kind="benchmark", capabilities=("micro", "sketching", "reference"),
          summary="L0 sampler update loop, pre-optimization reference "
                  "(per-level field calls).")
def _bench_l0_update_naive(scale: float = 1.0) -> BenchCase:
    params, updates = _l0_inputs(scale)

    def op():
        sampler = L0Sampler(params)
        for index, delta in updates:
            _reference_l0_update(sampler, index, delta)
        return {"ops": len(updates), "digest": _digest(sampler.counters())}

    return BenchCase(op=op, meta={"m": params.m, "levels": params.levels,
                                  "updates": len(updates)})


# --------------------------------------------------------------------- #
# parameter derivation
# --------------------------------------------------------------------- #


def _derive_tags(scale: float) -> list[tuple[int, int]]:
    count = _scaled(3000, scale, lo=32)
    return [(n, r) for n in (64, 256, 1024) for r in range(count // 3)]


@register("derive-params", kind="benchmark", capabilities=("micro", "sketching"),
          summary="Batched (alpha, beta, z) parameter derivation "
                  "(derive_params_block).")
def _bench_derive_params(scale: float = 1.0) -> BenchCase:
    tag_pairs = _derive_tags(scale)

    def op():
        acc = 0
        for n, r in tag_pairs:
            a, b, z = derive_params_block(_SEED, 3, n, r)
            acc ^= a ^ b ^ z
        return {"ops": 3 * len(tag_pairs), "digest": _digest(acc)}

    return BenchCase(op=op, meta={"instances": len(tag_pairs)})


@register("derive-params-naive", kind="benchmark",
          capabilities=("micro", "sketching", "reference"),
          summary="Scalar (alpha, beta, z) parameter derivation, one "
                  "derive_params call per value.")
def _bench_derive_params_naive(scale: float = 1.0) -> BenchCase:
    tag_pairs = _derive_tags(scale)

    def op():
        acc = 0
        for n, r in tag_pairs:
            a = derive_params(_SEED, 1, n, r)
            b = derive_params(_SEED, 2, n, r)
            z = derive_params(_SEED, 3, n, r)
            acc ^= a ^ b ^ z
        return {"ops": 3 * len(tag_pairs), "digest": _digest(acc)}

    return BenchCase(op=op, meta={"instances": len(tag_pairs)})


# --------------------------------------------------------------------- #
# bit packing
# --------------------------------------------------------------------- #


def _pack_fields(scale: float) -> list[tuple[int, int]]:
    """A sketch-message-shaped field stream: (w0, w1, 61)-bit triples."""
    count = _scaled(3000, scale, lo=60)
    fields = []
    x = _SEED ^ 0x5
    for i in range(count):
        x = splitmix64(x)
        width = (12, 24, 61)[i % 3]
        fields.append((x & ((1 << width) - 1), width))
    return fields


@register("bits-pack", kind="benchmark", capabilities=("micro", "bits"),
          summary="Message packing via single-pass BitWriter.write_many.")
def _bench_bits_pack(scale: float = 1.0) -> BenchCase:
    fields = _pack_fields(scale)
    total = sum(w for _, w in fields)

    def op():
        writer = BitWriter()
        writer.write_many(fields)
        return {"ops": len(fields), "bits": len(writer),
                "digest": _digest(writer.to_bytes().hex())}

    return BenchCase(op=op, meta={"fields": len(fields), "stream_bits": total})


@register("bits-pack-naive", kind="benchmark",
          capabilities=("micro", "bits", "reference"),
          summary="Message packing via one BitWriter.write_bits call per field.")
def _bench_bits_pack_naive(scale: float = 1.0) -> BenchCase:
    fields = _pack_fields(scale)
    total = sum(w for _, w in fields)

    def op():
        writer = BitWriter()
        for value, width in fields:
            writer.write_bits(value, width)
        return {"ops": len(fields), "bits": len(writer),
                "digest": _digest(writer.to_bytes().hex())}

    return BenchCase(op=op, meta={"fields": len(fields), "stream_bits": total})


# --------------------------------------------------------------------- #
# end-to-end loads
# --------------------------------------------------------------------- #


@register("sketch-connectivity", kind="benchmark",
          capabilities=("end-to-end", "sketching"),
          summary="Full AGM sketch round: encode every node, Boruvka-decode "
                  "the spanning forest.")
def _bench_sketch_connectivity(scale: float = 1.0) -> BenchCase:
    from repro.graphs.generators import random_tree

    n = _scaled(28, scale, lo=8)
    g = random_tree(n, seed=3)

    def op():
        report = sketch_spanning_forest(g, seed=1)
        return {
            "ops": n,
            "bits": report.bits_per_node,
            "digest": _digest([report.connected, list(map(list, report.forest_edges))]),
        }

    return BenchCase(op=op, meta={"n": n, "family": "random_tree"})


def _session_case(name: str, family: str, protocol: str, n: int,
                  seeds: tuple[int, ...]) -> BenchCase:
    """A campaign driven through the fluent API; digest = records identity."""
    from repro.api import Session

    session = (Session(name)
               .graphs(family, n=n, seeds=seeds)
               .protocol(protocol))

    def op():
        run = session.run()
        records = run.records
        bits = sum(r.total_message_bits for r in records)
        identity = sorted(
            (r.spec.content_hash(), r.output_digest, r.status) for r in records
        )
        return {"ops": len(records), "bits": bits, "digest": _digest(identity)}

    return BenchCase(op=op, meta={"family": family, "protocol": protocol,
                                  "n": n, "seeds": len(seeds)})


@register("session-forest", kind="benchmark", capabilities=("campaign",),
          summary="Forest-reconstruction campaign through repro.api.Session "
                  "(records digested).")
def _bench_session_forest(scale: float = 1.0) -> BenchCase:
    return _session_case("bench-forest", "random_forest", "forest",
                         _scaled(24, scale, lo=8), (0, 1))


@register("session-sketch", kind="benchmark", capabilities=("campaign", "sketching"),
          summary="AGM-connectivity campaign through repro.api.Session "
                  "(records digested).")
def _bench_session_sketch(scale: float = 1.0) -> BenchCase:
    return _session_case("bench-sketch", "two_components", "agm_connectivity",
                         _scaled(14, scale, lo=6), (0,))


def _trace_case(name: str, scale: float, *, trace: bool) -> BenchCase:
    """The same persisted forest campaign, with and without ``--trace``.

    The pair is the tentpole's "provably free" witness: the harness
    reports ``speedups["trace-overhead"]`` = traced-min / untraced-min,
    and the frozen bench baseline declares a floor just under 1.0 — if
    the *untraced* path ever gets measurably slower than the fully
    traced one (i.e. the NULL_TRACER fast path grew real work), the
    gate fails.  Digest parity doubles as a correctness witness:
    tracing must not change a single record.
    """
    import tempfile

    from repro.api import Session

    n = _scaled(20, scale, lo=8)
    seeds = tuple(range(_scaled(6, scale, lo=2)))
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-trace-")
    session = (Session(name)
               .graphs("random_forest", n=n, seeds=seeds)
               .protocol("forest")
               .persist(tmp.name, use_cache=False)
               .trace(trace))

    def op():
        # `tmp` is closed over here, keeping the results directory alive
        # (each run overwrites the previous streams in place).
        assert tmp is not None
        run = session.run()
        records = run.records
        identity = sorted(
            (r.spec.content_hash(), r.output_digest, r.status) for r in records
        )
        return {
            "ops": len(records),
            "bits": sum(r.total_message_bits for r in records),
            "digest": _digest(identity),
        }

    return BenchCase(op=op, meta={"family": "random_forest", "n": n,
                                  "seeds": len(seeds), "trace": trace})


@register("trace-overhead", kind="benchmark", capabilities=("campaign", "obs"),
          summary="Persisted campaign with tracing OFF — the NULL_TRACER "
                  "fast path the overhead gate pins.")
def _bench_trace_overhead(scale: float = 1.0) -> BenchCase:
    return _trace_case("bench-untraced", scale, trace=False)


@register("trace-overhead-naive", kind="benchmark",
          capabilities=("campaign", "obs", "reference"),
          summary="The same campaign fully traced (fsync'd event stream): "
                  "the cost ceiling the untraced path must beat.")
def _bench_trace_overhead_naive(scale: float = 1.0) -> BenchCase:
    return _trace_case("bench-traced", scale, trace=True)


@register("campaign-resume", kind="benchmark", capabilities=("campaign", "engine"),
          summary="Resume overhead: replay a fully-checkpointed sharded "
                  "campaign with zero recomputation, re-merge, digest.")
def _bench_campaign_resume(scale: float = 1.0) -> BenchCase:
    """What ``--resume`` costs when there is nothing left to compute.

    A sharded forest campaign is run to completion at factory time (off
    the clock, durable streams + done markers under a temp dir); the
    timed op resumes it — load the manifest, prefix-match both shard
    streams, replay every record, re-merge the canonical JSONL — which is
    exactly the fixed overhead a crash recovery or a CI re-run pays on
    top of the missing work.  ``ops``/``bits``/``digest`` cover the
    replayed records *and* the shard-artifact layout, so a change that
    broke replay fidelity or the on-disk contract fails the bench gate.
    """
    import pathlib
    import tempfile

    from repro.api import Session

    n = _scaled(20, scale, lo=8)
    seeds = tuple(range(_scaled(4, scale, lo=2)))
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-resume-")
    session = (Session("bench-resume")
               .graphs("random_forest", n=n, seeds=seeds)
               .protocol("forest")
               .persist(tmp.name, use_cache=False)
               .shard(2))
    session.run()  # checkpoint everything off the clock

    def op():
        # `tmp` is closed over here, keeping the checkpoint directory
        # alive for the whole timed run.
        run = session.resume().run()
        records = run.records
        layout = sorted(
            p.name for p in pathlib.Path(tmp.name).iterdir()
            if p.suffix in (".jsonl", ".json", ".done")
        )
        identity = sorted(
            (r.spec.content_hash(), r.output_digest, r.status) for r in records
        )
        return {
            "ops": len(records),
            "bits": sum(r.total_message_bits for r in records),
            "digest": _digest([identity, layout]),
            "resumed": run.result.resumed,
        }

    return BenchCase(op=op, meta={"family": "random_forest", "n": n,
                                  "seeds": len(seeds), "shards": 2})


# --------------------------------------------------------------------- #
# the campaign service (control plane, not compute)
# --------------------------------------------------------------------- #


def _serve_fixture():
    """A quiesced in-process daemon: ``workers=0`` so nothing executes.

    With no workers pulling assignments, every submitted job stays
    ``queued`` and every measured quantity is pure control-plane cost —
    HTTP round trip, validation, durable job-state write — with
    deterministic state digests (no records, no wall-clock-dependent
    transitions on the timed path).  The server thread and its temp store
    root live in the returned closure cell for the whole bench run.
    """
    import tempfile

    from repro.serve import ServeClient, ServerThread

    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-serve-")
    server = ServerThread(tmp.name, workers=0, executor="serial",
                          queue_limit=1_000_000).start()
    return tmp, server, ServeClient(server.url)


def _job_identity(view: dict) -> tuple:
    """The deterministic slice of a job view (no IDs, no timestamps)."""
    return (view["state"], view["name"], view["shards"], view["priority"],
            view["records"], view["resumed"])


@register("serve-submit-latency", kind="benchmark",
          capabilities=("serve", "end-to-end"),
          summary="Job submission round trip over the serve HTTP API "
                  "(validate + persist + enqueue + cancel).")
def _bench_serve_submit_latency(scale: float = 1.0) -> BenchCase:
    tmp, server, client = _serve_fixture()
    batch = _scaled(12, scale, lo=4)

    def op():
        # `tmp`/`server` are closed over here, keeping the daemon alive
        # across repeats; cancelling frees every admission slot so each
        # repeat starts from the same queue state.
        assert tmp is not None and server is not None
        identities = []
        for i in range(batch):
            job = client.submit("smoke", shards=1 + i % 3,
                                priority=("high", "normal", "low")[i % 3])
            identities.append(_job_identity(job.view))
            identities.append(_job_identity(job.cancel()))
        return {"ops": batch, "digest": _digest(sorted(identities))}

    return BenchCase(op=op, meta={"batch": batch, "workers": 0,
                                  "transport": "http"})


@register("serve-status-poll", kind="benchmark",
          capabilities=("serve", "end-to-end"),
          summary="Status-poll throughput over the serve HTTP API "
                  "(job view + per-shard progress + listing).")
def _bench_serve_status_poll(scale: float = 1.0) -> BenchCase:
    tmp, server, client = _serve_fixture()
    jobs = [client.submit("smoke", shards=2) for _ in range(_scaled(4, scale, lo=2))]
    polls = _scaled(30, scale, lo=8)

    def op():
        # `tmp`/`server` closed over: the daemon (and its queued jobs,
        # pinned by workers=0) lives for the whole bench run.
        assert tmp is not None and server is not None
        identities = []
        for i in range(polls):
            view = client.job(jobs[i % len(jobs)].id)
            identities.append(
                _job_identity(view) + (view["progress"]["records"],)
            )
        listed = client.jobs()
        return {
            "ops": polls,
            "digest": _digest([sorted(identities),
                               sorted(_job_identity(v) for v in listed)]),
        }

    return BenchCase(op=op, meta={"jobs": len(jobs), "polls": polls,
                                  "workers": 0, "transport": "http"})


# --------------------------------------------------------------------- #
# incremental aggregation
# --------------------------------------------------------------------- #


def _store_records(scale: float) -> list[dict]:
    """A splitmix-derived synthetic campaign, schema-shaped and JSON-able."""
    count = _scaled(600, scale, lo=48)
    protocols = ("forest", "spanning_tree", "degeneracy")
    families = ("random_forest", "path")
    records = []
    x = _SEED
    for i in range(count):
        x = splitmix64(x)
        a = x
        x = splitmix64(x)
        b = x
        n = (16, 32, 64)[a % 3]
        records.append({
            "spec_version": 2,
            "spec": {
                "scenario": "bench", "family": families[b % 2], "n": n,
                "seed": i, "protocol": protocols[a % 3],
                "family_params": {}, "protocol_params": {},
                "budget_bits": None, "shuffle_delivery": False,
                "faults": None,
            },
            "result": {
                "status": ("ok", "ok", "ok", "violation")[b % 4],
                "output_kind": "graph",
                "output_digest": f"{a % (1 << 32):08x}",
                "exact": (True, False, None)[a % 3],
                "graph_n": n, "graph_m": n - 1,
                "max_message_bits": int(a % 4096),
                "total_message_bits": int(b % 100_000),
                "faults": {"dropped": 0, "duplicated": 0, "flipped": 0},
                "error": "",
            },
            "timing": {"wall_seconds": (a % 1000) / 1000.0},
            "cached": False,
        })
    return records


_AGG_POLLS = 16  # summary polls per simulated campaign


def _agg_chunks(scale: float) -> list[list[dict]]:
    """The campaign's records as they land between ``/summary`` polls."""
    records = _store_records(scale)
    size = max(1, len(records) // _AGG_POLLS)
    return [records[i:i + size] for i in range(0, len(records), size)]


@register("aggregate-incremental", kind="benchmark",
          capabilities=("micro", "results"),
          summary="A polled campaign summary served from maintained "
                  "Aggregator state: feed each new chunk, snapshot groups.")
def _bench_aggregate_incremental(scale: float = 1.0) -> BenchCase:
    from repro.results.aggregate import Aggregator

    chunks = _agg_chunks(scale)
    total = sum(len(c) for c in chunks)

    def op():
        agg = Aggregator(by=("protocol", "n"))
        groups = None
        for chunk in chunks:
            agg.feed_many(chunk)
            groups = agg.groups()  # every poll answers with fresh groups
        return {"ops": total, "digest": _digest(groups)}

    return BenchCase(op=op, meta={"records": total, "polls": len(chunks)})


@register("aggregate-incremental-naive", kind="benchmark",
          capabilities=("micro", "results", "reference"),
          summary="The same polls re-aggregating every record seen so far "
                  "from scratch — the O(n·polls) bug the cache fixed.")
def _bench_aggregate_incremental_naive(scale: float = 1.0) -> BenchCase:
    from repro.results.aggregate import aggregate

    chunks = _agg_chunks(scale)
    total = sum(len(c) for c in chunks)

    def op():
        seen: list[dict] = []
        groups = None
        for chunk in chunks:
            seen.extend(chunk)
            groups = aggregate(seen, by=("protocol", "n"))
        return {"ops": total, "digest": _digest(groups)}

    return BenchCase(op=op, meta={"records": total, "polls": len(chunks)})
