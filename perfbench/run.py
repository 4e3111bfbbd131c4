#!/usr/bin/env python3
"""End-to-end, layer-resolved benchmark of the referee-model reproduction.

Run from the repository root (it builds nothing; the program runs from
``src/``):

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 34 --trace 0

Workloads (``workloads.py``; why each was chosen is in ``NOTES.md``):

* ``reconstruct`` -- Theorem 5 degeneracy reconstruction, in-process;
* ``sketch`` -- AGM connectivity on connected and split inputs, in-process;
* ``ledger`` -- thousands of tiny runs through ``python -m repro``.

Every workload is a closed loop of passes.  One pass runs the seeded base
grid (``wall_s``), runs it extended by new points (``replay_s``: the
cache serves the old ones on ``ledger``; in-process there is no cache,
and the extended grid is timed one run at a time, base runs included),
reports the extended records twice with ``python -m repro report``
(``report_s``) and starts ``python -m repro --version`` twice
(``cold_start_s``).  Each of these metrics is the median sample of the
run; ``setup_s`` is the median of several set-ups.  Every time is scaled
to a nominal host speed by references timed next to it (``speed.py``).
Every record is checked against its pinned outcome.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs
the passes in-process, alternating untraced and traced ones, and prints
the per-layer metrics from the traced passes plus the tracing overhead.
The last line of standard output is always one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The benchmark times with its own clock and never uses the program's
bench, obs or statistics code to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext

from spans import LAYERS, Recorder, instrument
from speed import CHILD_NOMINAL_S, IO_WRITES, NOMINAL_S, Meter, reference_kernel
from workloads import WORKLOADS, Checker, Grid, Workload, load_pins

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
#: Bytecode of the program, for this process and its children alike, so
#: a cold start reads cached bytecode whatever the environment says.
PYCACHE = WORK / "pycache"
clock = time.perf_counter

SETUPS = 5          # set-ups per run; setup_s is their median
MIN_PASSES = 3      # closed-loop passes measured even when --seconds is short
CLI_TIMEOUT = 120   # seconds; a hung child is killed and counted as failed

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "nodes_per_s": "1/s", "peak_rss_mb": "MB",
    "cold_start_s": "s", "replay_s": "s", "report_s": "s",
}
#: Timed once or more per pass, scaled to nominal host speed; each metric
#: is the median sample of the run.
PASS_TIMINGS = ("wall_s", "replay_s", "report_s", "cold_start_s")
PER_LAYER = {
    "graphs.build_s": "s", "graphs.edges": "count",
    "local.encode_s": "s", "local.calls": "count", "local.bits": "bits",
    "referee.deliver_s": "s", "referee.faults": "count",
    "global.decode_s": "s", "global.calls": "count",
    "global.decode_errors": "count", "global.exact_ratio": "ratio",
    "engine.self_s": "s", "engine.cache_hit_ratio": "ratio",
    "persist.write_s": "s", "persist.records": "count", "persist.bytes": "bytes",
    "results.load_s": "s", "results.records_per_s": "1/s",
    "results.aggregate_s": "s",
    "cli.import_s": "s",
    "trace.wall_s": "s", "trace.overhead_pct": "%",
}


def say(line: str) -> None:
    print(line, flush=True)


# --------------------------------------------------------------------- #
# correctness tally and program entry points
# --------------------------------------------------------------------- #


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def records(self, records: list[dict], expected: int) -> None:
        """Check one step's records; missing ones count as failed."""
        for record in records:
            why = self.checker.check(record)
            self.attempted += 1
            if why:
                self.failed += 1
                self.reasons[why] += 1
        if len(records) < expected:
            self.fail("record missing", expected - len(records))

    def fail(self, why: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[why] += count


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC),
               PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli(args: list[str], cwd: pathlib.Path) -> tuple[float, subprocess.CompletedProcess | None]:
    """Run ``python <args>`` to completion; ``(seconds, process)``."""
    t0 = clock()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                              capture_output=True, text=True, timeout=CLI_TIMEOUT)
    except subprocess.TimeoutExpired:
        return clock() - t0, None
    return clock() - t0, proc


def cli_ok(proc: subprocess.CompletedProcess | None, what: str) -> bool:
    if proc is not None and proc.returncode == 0:
        return True
    detail = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    print(f"{what} failed: {detail}", file=sys.stderr)
    return False


def run_campaign(spec: dict, results_dir: pathlib.Path | None):
    """The library entry point: load a campaign spec and run it serially."""
    from repro.engine.campaign import Campaign

    campaign = Campaign.from_dict(spec, results_dir=results_dir,
                                  use_cache=results_dir is not None)
    return campaign.run()


def read_jsonl(path: pathlib.Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def write_jsonl(records, path: pathlib.Path) -> None:
    """Persist records through the engine's own durable stream writer."""
    from repro.engine.shard import JsonlStreamWriter

    with JsonlStreamWriter(path) as writer:
        for record in records:
            writer.write(record.to_json_dict())


def dir_bytes(path: pathlib.Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #


class Context:
    """One set-up: the seed's grid, spec files and a private work dir."""

    def __init__(self, workload: Workload, seed: int, pins: dict, index: int) -> None:
        self.workload = workload
        self.grid: Grid = workload.draw(seed)
        self.base = self.grid.spec(extended=False)
        self.extended = self.grid.spec(extended=True)
        self.dir = WORK / f"{workload.name}-{os.getpid()}-{index}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.results = self.dir / "results"
        self.jsonl = self.results / f"{workload.name}.jsonl"
        self.units = self.grid.unit_specs()
        self.base_path = self.dir / "base.json"
        self.extended_path = self.dir / "extended.json"
        self.base_path.write_text(json.dumps(self.base))
        self.extended_path.write_text(json.dumps(self.extended))
        self.tally = Tally(Checker(workload, pins))

    def campaign_cli(self, spec_path: pathlib.Path, results: pathlib.Path):
        return cli(["-m", "repro", "campaign", str(spec_path), "--results-dir",
                    str(results), "--executor", "serial"], self.dir)

    def warm_up(self, in_process: bool) -> None:
        """One small grid through the same entry point the passes use."""
        spec = self.grid.warmup_spec(per_cell=1 if in_process else 10)
        if in_process:
            run_campaign(spec, None)
            return
        path = self.dir / "warmup.json"
        path.write_text(json.dumps(spec))
        _, proc = self.campaign_cli(path, self.dir / "warmup")
        if not cli_ok(proc, "warm-up campaign"):
            raise SystemExit(2)
        shutil.rmtree(self.dir / "warmup")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def set_up(workload: Workload, seed: int, in_process: bool,
           meter: Meter) -> tuple[Context, list[float]]:
    """Set up :data:`SETUPS` times; keep the last context.

    Returns the context and every set-up's scaled time, each including
    the one-off import of the program when it runs in-process.
    """
    def import_program() -> dict:
        if in_process:
            import repro.engine.campaign  # noqa: F401
            import repro.engine.shard  # noqa: F401
        return load_pins()

    def one(index: int) -> Context:
        ctx = Context(workload, seed, pins, index)
        ctx.warm_up(in_process)
        return ctx

    once, _, pins = meter.timed(import_program)
    times, ctx = [], None
    for i in range(SETUPS):
        if ctx is not None:
            ctx.close()
        seconds, _, ctx = meter.timed(lambda: one(i))
        times.append(once + seconds)
    return ctx, times


# --------------------------------------------------------------------- #
# end-to-end passes (--trace 0)
# --------------------------------------------------------------------- #


#: Metric name -> ``(scaled s, raw s)`` samples of one run.
Samples = dict[str, list[tuple[float, float]]]


def e2e_pass(ctx: Context, meter: Meter, out: Samples) -> None:
    """One closed-loop pass; appends its timings to ``out`` by metric name.

    ``--version`` runs first and after step 3, which then runs again, so
    cold start and report are sampled twice each.  Every child runs
    between two reference children, which scale its time.
    """
    grid, tally = ctx.grid, ctx.tally
    version(ctx, meter, out)
    if ctx.workload.via_cli:
        shutil.rmtree(ctx.results, ignore_errors=True)
        for metric, path, extended in (("wall_s", ctx.base_path, False),
                                       ("replay_s", ctx.extended_path, True)):
            scaled, raw, proc = meter.timed_child(
                lambda: ctx.campaign_cli(path, ctx.results)[1], ctx.dir, IO_WRITES)
            out[metric].append((scaled, raw))
            if cli_ok(proc, f"campaign {path.name}"):
                tally.records(read_jsonl(ctx.jsonl), grid.runs(extended))
            else:
                tally.fail("campaign process failed", grid.runs(extended))
    else:
        unit_pass(ctx, meter, out)
    report(ctx, meter, out)
    version(ctx, meter, out)
    report(ctx, meter, out)


def report(ctx: Context, meter: Meter, out: Samples) -> None:
    """One ``python -m repro report`` of the extended records."""
    scaled, raw, proc = meter.timed_child(
        lambda: cli(["-m", "repro", "report", str(ctx.jsonl)], ctx.dir)[1], ctx.dir)
    out["report_s"].append((scaled, raw))
    if not cli_ok(proc, "report") or f" {ctx.grid.runs(True)} runs" not in proc.stdout:
        ctx.tally.fail("report failed")
    else:
        ctx.tally.attempted += 1


def unit_pass(ctx: Context, meter: Meter, out: Samples) -> None:
    """The extended grid in-process, one single-run campaign at a time.

    A kernel sample sits between every two runs, and each run's time is
    scaled by the faster of the samples on either side of it (the slower
    one may have caught an interrupt).  ``wall_s`` is the base runs'
    time, ``replay_s`` all runs' time; the records are then written
    through the engine's stream writer for the report step.
    """
    times, scaled, records = [], [], []
    before = meter.sample()
    for spec in ctx.units:
        t0 = clock()
        result = run_campaign(spec, None)
        times.append(clock() - t0)
        after = meter.sample()
        scaled.append(times[-1] * NOMINAL_S / min(before, after))
        before = after
        records.extend(result.records)
    base = ctx.grid.runs(False)
    out["wall_s"].append((sum(scaled[:base]), sum(times[:base])))
    out["replay_s"].append((sum(scaled), sum(times)))
    ctx.tally.records([r.to_json_dict() for r in records], len(ctx.units))
    shutil.rmtree(ctx.results, ignore_errors=True)
    write_jsonl(records, ctx.jsonl)


def version(ctx: Context, meter: Meter, out: Samples) -> None:
    """One ``python -m repro --version`` sample."""
    scaled, raw, proc = meter.timed_child(
        lambda: cli(["-m", "repro", "--version"], ctx.dir)[1], ctx.dir)
    out["cold_start_s"].append((scaled, raw))
    if not cli_ok(proc, "--version") or not proc.stdout.startswith("repro"):
        ctx.tally.fail("--version failed")
    else:
        ctx.tally.attempted += 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure_e2e(workload: Workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    for _ in range(5):
        reference_kernel()
    meter = Meter(child_env())
    ctx, setups = set_up(workload, seed, not workload.via_cli, meter)
    try:
        # An untimed first pass compiles the children's bytecode and fills
        # the in-process caches the timed passes then find warm.
        e2e_pass(ctx, meter, {name: [] for name in PASS_TIMINGS})
        samples: Samples = {name: [] for name in PASS_TIMINGS}
        t0 = last = clock()
        # A pass starts only if it is expected to end within --seconds.
        while len(samples["replay_s"]) < MIN_PASSES or 2 * clock() - last < t0 + seconds:
            last = clock()
            e2e_pass(ctx, meter, samples)
    finally:
        ctx.close()
    who = resource.RUSAGE_CHILDREN if workload.via_cli else resource.RUSAGE_SELF
    metrics = {"setup_s": statistics.median(setups)}
    for name in PASS_TIMINGS:
        metrics[name] = statistics.median(s for s, _ in samples[name])
    metrics["nodes_per_s"] = ctx.grid.nodes(False) / metrics["wall_s"]
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024

    say(f"# {workload.name}: base {ctx.grid.runs(False)} runs / "
        f"{ctx.grid.nodes(False)} nodes, extended {ctx.grid.runs(True)} runs, "
        f"{len(samples['replay_s'])} passes")
    references = [("kernel", meter.samples, NOMINAL_S)]
    references += [(f"child with {writes} writes", times, CHILD_NOMINAL_S[writes])
                   for writes, times in sorted(meter.children.items())]
    for what, times, nominal in references:
        median = statistics.median(times)
        say(f"#   host speed: reference {what} median {median * 1e3:.2f} ms over "
            f"{len(times)} samples, nominal {nominal * 1e3:.2f} ms ({median / nominal:.2f}x)")
    say(f"#   setup_s {metrics['setup_s']:.4f} s (median of {len(setups)}: "
        + ", ".join(f"{t:.4f}" for t in setups) + ")")
    for name in PASS_TIMINGS:
        scaled = [s for s, _ in samples[name]]
        q1, q2, q3 = quartiles(scaled)
        say(f"#   {name} median {q2:.4f} s  quartiles [{q1:.4f}, {q3:.4f}]  "
            f"n={len(scaled)}  raw median {statistics.median(r for _, r in samples[name]):.4f}  "
            f"scaled samples " + " ".join(f"{v:.4f}" for v in scaled))
    say(f"#   nodes_per_s {metrics['nodes_per_s']:.1f} 1/s   "
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB "
        f"({'children' if workload.via_cli else 'process'})")
    return ctx.tally, metrics


# --------------------------------------------------------------------- #
# in-process passes and the traced run (--trace 1)
# --------------------------------------------------------------------- #


def _no_span(_name: str):
    return nullcontext()


def grid_steps(ctx: Context, results_dir: pathlib.Path | None, span) -> tuple[dict, object]:
    """Run the base and then the extended grid in-process; check every record.

    Returns each step's time with counts from the executed records, and
    the extended step's campaign result.
    """
    stats = {"steps": {}, "hits": 0, "lookups": 0, "faults": 0, "useful": 0}
    for step, spec, extended in (("base", ctx.base, False),
                                 ("replay", ctx.extended, True)):
        t0 = clock()
        with span(f"step.{step}"):
            result = run_campaign(spec, results_dir)
        stats["steps"][step] = clock() - t0
        records = [r.to_json_dict() for r in result.records]
        ctx.tally.records(records, ctx.grid.runs(extended))
        stats["hits"] += result.cache_hits
        stats["lookups"] += result.cache_hits + result.cache_misses
        for record in records:
            if not record["cached"]:
                stats["faults"] += sum(record["result"]["faults"].values())
                stats["useful"] += _useful(record)
    return stats, result


def in_process_pass(ctx: Context, rec: Recorder | None) -> dict:
    """Base, replay and read steps in-process, traced when ``rec`` is given.

    The ledger persists to a fresh results dir and replays from its cache;
    the other workloads run without persistence and write the extended
    records through the engine's stream writer for the read step.
    """
    from repro.results import aggregate, iter_records

    span = rec.span if rec is not None else _no_span
    results_dir = ctx.results if ctx.workload.via_cli else None
    shutil.rmtree(ctx.results, ignore_errors=True)
    with instrument(rec) if rec is not None else nullcontext():
        out, result = grid_steps(ctx, results_dir, span)
        t0 = clock()
        with span("step.read"):
            if results_dir is None:
                write_jsonl(result.records, ctx.jsonl)
            with span("results.load"):
                loaded = list(iter_records(ctx.jsonl))
            with span("results.aggregate"):
                aggregate(loaded)
        out["steps"]["read"] = clock() - t0
    out["records_read"] = len(loaded)
    out["bytes"] = dir_bytes(ctx.results)
    return out


def _useful(record: dict) -> bool:
    """A run whose global phase produced the right answer."""
    res = record["result"]
    if res["status"] != "ok" or res["exact"] is False:
        return False
    if record["spec"]["protocol"] == "agm_connectivity":
        return res["output_digest"] == str(record["spec"]["family"] != "two_components")
    return True


def layer_metrics(rec: Recorder, run: dict, cli_import: float) -> dict[str, float]:
    total = pass_total(rec.self_times())
    global_calls = rec.count("global")
    load_s = rec.duration("results.load")
    return {
        "graphs.build_s": total["graphs"],
        "graphs.edges": rec.counts["graphs.edges"],
        "local.encode_s": total["local"],
        "local.calls": rec.count("local"),
        "local.bits": rec.counts["local.bits"],
        "referee.deliver_s": total["referee"],
        "referee.faults": run["faults"],
        "global.decode_s": total["global"],
        "global.calls": global_calls,
        "global.decode_errors": rec.counts["global.errors"],
        "global.exact_ratio": run["useful"] / global_calls if global_calls else 0.0,
        "engine.self_s": total["engine"],
        "engine.cache_hit_ratio": run["hits"] / run["lookups"] if run["lookups"] else 0.0,
        "persist.write_s": total["persist"],
        "persist.records": rec.counts["persist.records"],
        "persist.bytes": run["bytes"],
        "results.load_s": load_s,
        "results.records_per_s": run["records_read"] / load_s if load_s else 0.0,
        "results.aggregate_s": rec.duration("results.aggregate"),
        "cli.import_s": cli_import,
        "trace.wall_s": sum(run["steps"].values()),
    }


def pass_total(by_root: dict) -> Counter:
    """Self time per layer summed over a pass's steps."""
    total: Counter = Counter()
    for layers in by_root.values():
        total.update(layers)
    return total


def share_table(by_root: dict) -> list[str]:
    """Each layer's share of traced wall time, per step and for the pass."""
    rows = []
    total: Counter = Counter()
    for root in ("step.base", "step.replay", "step.read"):
        layers = by_root.get(root, {})
        total.update(layers)
        rows.append((root[5:], layers))
    rows.append(("pass", total))
    out = ["#   share of traced wall   " + " ".join(f"{l:>8s}" for l in LAYERS + ("other",))]
    for label, layers in rows:
        wall = sum(layers.values()) or 1.0
        out.append(f"#   {label:<22s} " + " ".join(
            f"{100 * layers.get(l, 0.0) / wall:7.1f}%" for l in LAYERS + ("other",)))
    return out


def shape_check(workload: Workload, by_root: dict) -> str:
    """The layer shape each workload was chosen for (informational)."""
    total = pass_total(by_root)
    wall = sum(total.values()) or 1.0
    if workload.name == "reconstruct":
        ok = total["global"] / wall > 0.5
        claim = "global decode is the majority"
    elif workload.name == "sketch":
        ok = total["local"] / wall >= 0.25 and total["global"] / wall >= 0.25
        claim = "local encode and global decode each >= 25%"
    else:
        base = by_root.get("step.base", {})
        ok = (base.get("engine", 0) + base.get("persist", 0)
              > base.get("local", 0) + base.get("global", 0))
        claim = "engine + persist outweigh local + global on the write step"
    return f"#   shape {'ok' if ok else 'NOT MET'}: {claim}"


def measure_traced(workload: Workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    ctx, _setups = set_up(workload, seed, True, Meter())
    per_pass: list[dict[str, float]] = []
    untraced_base: list[float] = []
    rec = None
    try:
        t0 = clock()
        while len(per_pass) < MIN_PASSES or clock() - t0 < seconds:
            untraced_base.append(in_process_pass(ctx, None)["steps"]["base"])
            rec = Recorder()
            run = in_process_pass(ctx, rec)
            cli_import, proc = cli(["-c", "import repro.cli"], ctx.dir)
            if not cli_ok(proc, "import repro.cli"):
                ctx.tally.fail("import repro.cli failed")
            metrics = layer_metrics(rec, run, cli_import)
            metrics["_base"] = run["steps"]["base"]
            per_pass.append(metrics)
    finally:
        ctx.close()
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in PER_LAYER
               if name != "trace.overhead_pct"}
    traced_base = statistics.median(p["_base"] for p in per_pass)
    metrics["trace.overhead_pct"] = 100 * (traced_base / statistics.median(untraced_base) - 1)

    WORK.mkdir(exist_ok=True)
    dump = WORK / f"trace-{workload.name}.jsonl"
    rec.dump(dump)
    say(f"# {workload.name} traced: {len(per_pass)} traced + {len(untraced_base)} "
        f"untraced in-process passes; last pass's {len(rec.spans)} spans -> {dump}")
    if rec.missing:
        say(f"#   hooks not found (those layers read 0): {', '.join(rec.missing)}")
    say(f"#   tracing overhead on the base step: {metrics['trace.overhead_pct']:.1f}% "
        f"(traced {traced_base:.4f} s vs untraced {statistics.median(untraced_base):.4f} s)")
    by_root = rec.self_times()
    for line in share_table(by_root):
        say(line)
    say(shape_check(workload, by_root))
    for name, unit in PER_LAYER.items():
        say(f"#   {name:24s} {metrics[name]:.6g} {unit}")
    return ctx.tally, metrics


# --------------------------------------------------------------------- #
# environment stamp and entry point
# --------------------------------------------------------------------- #


def cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (empty off Linux)."""
    try:
        return [int(x) for x in pathlib.Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return []


def steal_pct(start: list[int], end: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to others while we ran."""
    if len(start) < 8 or len(end) < 8:
        return None
    delta = [b - a for a, b in zip(start, end)]
    return round(100 * delta[7] / sum(delta), 2) if sum(delta) else 0.0


def environment(load_start: tuple[float, ...], ticks_start: list[int]) -> dict:
    """Who ran this, on what: stamped on every result."""
    try:
        from importlib.metadata import version

        numpy = version("numpy")
    except Exception:
        numpy = "absent"
    try:
        from repro.sketching.kernels import active_kernels

        kernels = active_kernels()
    except ImportError:
        kernels = "pure (no backend switch)"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "kernels": kernels,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "steal_pct": steal_pct(ticks_start, cpu_ticks()),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else ref[5:]
    return ref


def pin_to_one_cpu() -> int | None:
    """Run this process and its children on one CPU, the last usable one.

    The speed references then run on the CPU that every timed step runs
    on; a child never waits for its parent, which only waits for it.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so work dirs are removed and any
    # running child is killed and reaped by subprocess.run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix, sys.dont_write_bytecode = str(PYCACHE), False
    cpu = pin_to_one_cpu()
    load_start, ticks_start = os.getloadavg(), cpu_ticks()
    workload = WORKLOADS[args.workload]
    measure = measure_traced if args.trace else measure_e2e
    tally, metrics = measure(workload, args.seed, args.seconds)
    env = environment(load_start, ticks_start)
    env["pinned_cpu"] = cpu
    units = PER_LAYER if args.trace else END_TO_END

    say(f"# env {json.dumps(env, sort_keys=True)}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    say(f"# failed_ratio {ratio:.6g} ({tally.failed}/{tally.attempted})"
        + ("" if not tally.reasons else f" reasons {dict(tally.reasons)}"))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    say(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
