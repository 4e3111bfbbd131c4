"""Command-line interface: experiments, campaigns, and the results layer.

Usage::

    python -m repro list                       # experiments + builtin campaigns
    python -m repro experiment EXP-L2          # run one experiment table
    python -m repro experiment all --json      # every experiment, as JSON
    python -m repro campaign smoke             # run a builtin campaign
    python -m repro campaign spec.json --jobs 4 --executor process
    python -m repro campaign smoke --shards 3 --shard-index 0   # one worker's slice
    python -m repro campaign smoke --shards 3 --shard-index 0 --resume
    python -m repro campaign smoke --trace     # + results/smoke.events.jsonl
    python -m repro trace results/smoke.events.jsonl   # phase breakdown
    python -m repro stats smoke                # metrics, Prometheus text
    python -m repro merge smoke                # reassemble shard streams
    python -m repro report results/smoke.jsonl --by protocol,n
    python -m repro report results/smoke.jsonl --trend  # + trend ledger gate
    python -m repro diff results-a/smoke.jsonl results-b/smoke.jsonl
    python -m repro baseline freeze results/smoke.jsonl --name smoke
    python -m repro baseline check results/smoke.jsonl benchmarks/baselines/smoke.json
    python -m repro bench --json                   # perf suite -> BENCH_PR4.json
    python -m repro bench --gate benchmarks/baselines/bench.json  # exit 1 on regression
    python -m repro serve --root serve-data        # the campaign service daemon
    python -m repro submit smoke --shards 2        # submit a job over HTTP
    python -m repro jobs                           # list the daemon's jobs
    python -m repro job j000001 --follow           # follow one to completion

Exit codes: 0 success, 1 gate/domain failure (``diff`` found
differences, ``baseline check`` failed, ``bench --gate`` regressed —
including a trend regression from ``--trends``, ``merge`` found
incomplete shards — retry after resuming them, ``report`` pointed at a
missing/empty records file or found a trend regression with ``--trend``,
``submit`` refused by a full queue — retry later, ``job`` landed
failed/cancelled), 2 usage error, 130 an interrupted ``campaign`` or
``serve`` (partial campaign results stay durable — re-run with
``--resume``).

One error policy, in :func:`main` only: argparse errors become return
codes (``SystemExit`` never escapes); a :class:`~repro.errors.ReproError`
(a library refusal: schema-invalid input, bad shard geometry, a
missing/stale manifest, no daemon at ``--url``, an unknown job ID) or an
:class:`OSError` (an unreadable or unwritable path) prints one
``error:`` line and returns 2; a :class:`BrokenPipeError` (stdout closed
by ``| head``) propagates, so ``python -m repro`` exits 0 quietly; any
other exception is a bug and keeps its traceback.  Each handler in
:data:`_COMMANDS` returns only the outcomes that differ from that policy.

Experiment tables go to stdout (redirect to keep one); campaigns stream
JSONL records into ``results/`` (see DESIGN.md §3 for the record schema,
§4 for the results layer).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import registry
from repro.analysis import format_table
from repro.errors import ReproError

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for Becker et al., 'Adding a referee "
        "to an interconnection network' (IPDPS 2011).",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(
        dest="command", metavar="{" + ",".join(_COMMANDS) + "}"
    )

    p_list = sub.add_parser(
        "list", help="show the registry catalog (families, protocols, "
        "experiments, campaigns)")
    p_list.add_argument("--kind", choices=registry.kinds(), default=None,
                        help="restrict the listing to one registry kind")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")

    p_exp = sub.add_parser("experiment", help="run one experiment table (or 'all')")
    p_exp.add_argument("experiment", help="experiment ID (e.g. EXP-T5) or 'all'")
    p_exp.add_argument("--json", action="store_true", help="emit tables as JSON")

    p_camp = sub.add_parser("campaign", help="run a campaign (builtin name or spec.json)")
    p_camp.add_argument("campaign", help="builtin campaign name or path to a JSON spec")
    p_camp.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker count for pooled executors (default: all cores)")
    p_camp.add_argument("--executor", choices=("serial", "thread", "process"),
                        default="serial", help="execution backend (default: serial)")
    p_camp.add_argument("--results-dir", default="results", metavar="DIR",
                        help="where the JSONL record streams live; they double "
                        "as the run cache (default: results/)")
    p_camp.add_argument("--no-cache", action="store_true",
                        help="recompute every run, ignoring cached results")
    p_camp.add_argument("--shards", type=int, default=None, metavar="N",
                        help="split the grid into N shards by spec content "
                        "hash (see `repro merge`)")
    p_camp.add_argument("--shard-index", type=int, default=None, metavar="I",
                        help="run only shard I (0-based); omit to run every "
                        "shard in this process and auto-merge")
    p_camp.add_argument("--resume", action="store_true",
                        help="replay the durable prefix of an interrupted "
                        "run and execute only what is missing")
    p_camp.add_argument("--trace", action="store_true",
                        help="stream span/mark/metrics events to "
                        "<results-dir>/<name>.events.jsonl (see `repro trace`)")
    progress_group = p_camp.add_mutually_exclusive_group()
    progress_group.add_argument("--progress", action="store_true", default=None,
                                dest="progress",
                                help="live progress on stderr (default: on "
                                "when stderr is a TTY)")
    progress_group.add_argument("--no-progress", action="store_false",
                                dest="progress",
                                help="disable live progress")
    p_camp.add_argument("--json", action="store_true", help="emit the summary as JSON")

    p_merge = sub.add_parser(
        "merge", help="merge completed shard streams into the canonical JSONL")
    p_merge.add_argument("campaign", help="campaign name (the manifest lives at "
                         "<results-dir>/<name>.manifest.json)")
    p_merge.add_argument("--results-dir", default="results", metavar="DIR",
                         help="where the manifest and shard streams live "
                         "(default: results/)")
    p_merge.add_argument("--json", action="store_true",
                         help="emit the merge summary as JSON")

    p_rep = sub.add_parser("report", help="aggregate a campaign JSONL file")
    p_rep.add_argument("records", help="path to a results/<name>.jsonl file")
    p_rep.add_argument("--by", default=None, metavar="AXES",
                       help="comma-separated spec axes to group by "
                       "(default: protocol,family,n)")
    p_rep.add_argument("--timing", action="store_true",
                       help="include (nondeterministic) wall-clock columns")
    p_rep.add_argument("--trend", action="store_true",
                       help="append this campaign's point to the trend "
                       "ledger and exit 1 when its p95 message bits rose "
                       "for three consecutive comparable runs")
    p_rep.add_argument("--trends", default=None, metavar="LEDGER",
                       help="trend ledger path (default: trends.jsonl next "
                       "to the records file; implies --trend)")
    p_rep.add_argument("--json", action="store_true", help="emit groups as JSON")

    p_diff = sub.add_parser("diff", help="compare two campaign JSONL files run-by-run")
    p_diff.add_argument("a", help="baseline campaign JSONL")
    p_diff.add_argument("b", help="candidate campaign JSONL")
    p_diff.add_argument("--bits-tolerance", type=float, default=0.0, metavar="F",
                        help="relative bit-count tolerance (default: 0 = exact)")
    p_diff.add_argument("--json", action="store_true", help="emit the verdict as JSON")

    p_base = sub.add_parser("baseline", help="freeze or check a regression baseline")
    base_sub = p_base.add_subparsers(dest="action", metavar="{freeze,check}")
    p_freeze = base_sub.add_parser("freeze", help="freeze a campaign summary to JSON")
    p_freeze.add_argument("records", help="path to a results/<name>.jsonl file")
    p_freeze.add_argument("--name", required=True, help="baseline name (file stem)")
    p_freeze.add_argument("--dir", default="benchmarks/baselines", metavar="DIR",
                          help="baselines directory (default: benchmarks/baselines)")
    p_check = base_sub.add_parser("check", help="check a campaign against a baseline")
    p_check.add_argument("records", help="path to a results/<name>.jsonl file")
    p_check.add_argument("baseline", help="path to a frozen baseline JSON file")
    p_check.add_argument("--bits-tolerance", type=float, default=0.0, metavar="F",
                         help="relative bit-count tolerance (default: 0 = exact)")
    p_check.add_argument("--json", action="store_true", help="emit the verdict as JSON")

    p_bench = sub.add_parser(
        "bench", help="run the registered benchmark suite (kind 'benchmark')")
    p_bench.add_argument("benchmarks", nargs="*", metavar="NAME",
                         help="benchmark names (default: the whole suite; "
                         "see `repro list --kind benchmark`)")
    p_bench.add_argument("--scale", type=float, default=1.0, metavar="F",
                         help="input-size multiplier applied to every "
                         "benchmark (default: 1.0)")
    p_bench.add_argument("--repeats", type=int, default=3, metavar="N",
                         help="timed repetitions per benchmark (default: 3)")
    p_bench.add_argument("--output", default=None, metavar="PATH",
                         help="where to write the JSON report "
                         "(default: BENCH_PR4.json; '-' disables)")
    p_bench.add_argument("--freeze", default=None, metavar="PATH",
                         help="also freeze this run as a bench baseline at PATH")
    p_bench.add_argument("--gate", default=None, metavar="BASELINE",
                         help="check the run against a frozen bench baseline "
                         "(exit 1 on regression)")
    p_bench.add_argument("--trends", default=None, metavar="LEDGER",
                         help="append each benchmark's p95 wall seconds to "
                         "this trend ledger and fail (exit 1) when one rose "
                         "for three consecutive comparable runs")
    p_bench.add_argument("--json", action="store_true",
                         help="emit the report (and gate verdict) as JSON")

    p_trace = sub.add_parser(
        "trace", help="analyze a campaign's events.jsonl: phase breakdown, "
        "critical path, slowest runs")
    p_trace.add_argument("events", help="path to a <name>.events.jsonl file")
    p_trace.add_argument("--top", type=int, default=10, metavar="K",
                         help="slowest runs to show (default: 10)")
    p_trace.add_argument("--json", action="store_true",
                         help="emit the full report as JSON")

    p_stats = sub.add_parser(
        "stats", help="show a campaign's metrics snapshot "
        "(Prometheus text format)")
    p_stats.add_argument("metrics", help="campaign name (resolved under "
                         "--results-dir) or path to a <name>.metrics.json file")
    p_stats.add_argument("--results-dir", default="results", metavar="DIR",
                         help="where metrics snapshots live (default: results/)")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the raw snapshot as JSON")

    p_serve = sub.add_parser(
        "serve", help="run the campaign service daemon (HTTP/JSON on "
        "--host:--port; Ctrl-C or SIGTERM stops it cleanly)")
    p_serve.add_argument("--host", default=None, metavar="HOST",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=None, metavar="PORT",
                         help="listen port (default: 7341; 0 picks an "
                         "ephemeral port, printed in the banner)")
    p_serve.add_argument("--root", default="serve-data", metavar="DIR",
                         help="the durable job store root (default: "
                         "serve-data/; restart on the same root resumes "
                         "unfinished jobs)")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="shard-pulling worker tasks (default: 2)")
    p_serve.add_argument("--queue-limit", type=int, default=16, metavar="N",
                         help="max active (queued+running) jobs before "
                         "submissions get 429 (default: 16)")
    p_serve.add_argument("--executor", choices=("serial", "thread", "process"),
                         default="process",
                         help="execution backend per shard (default: process)")
    p_serve.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="pool size inside each shard's executor "
                         "(default: all cores)")
    p_serve.add_argument("--shard-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="hard per-shard wall-clock limit "
                         "(default: none)")
    p_serve.add_argument("--retries", type=int, default=2, metavar="N",
                         help="re-runs of a shard whose worker process "
                         "crashed (default: 2)")

    url_help = ("daemon URL (default: $REPRO_SERVE_URL or "
                "http://127.0.0.1:7341)")
    p_submit = sub.add_parser(
        "submit", help="submit a campaign job to a running daemon")
    p_submit.add_argument("campaign", help="builtin campaign name or path to "
                          "a JSON spec")
    p_submit.add_argument("--url", default=None, metavar="URL", help=url_help)
    p_submit.add_argument("--shards", type=int, default=1, metavar="N",
                          help="split the grid into N independently-"
                          "scheduled shards (default: 1)")
    p_submit.add_argument("--priority", choices=("high", "normal", "low"),
                          default="normal",
                          help="queue priority class (default: normal)")
    p_submit.add_argument("--executor", choices=("serial", "thread", "process"),
                          default=None,
                          help="override the daemon's executor for this job")
    p_submit.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="override the daemon's per-shard pool size")
    p_submit.add_argument("--no-cache", action="store_true",
                          help="recompute every run, ignoring cached results")
    p_submit.add_argument("--follow", action="store_true",
                          help="after submitting, follow the job to "
                          "completion (like `repro job <id> --follow`)")
    p_submit.add_argument("--json", action="store_true",
                          help="emit the created job view as JSON")

    p_jobs = sub.add_parser("jobs", help="list a daemon's jobs")
    p_jobs.add_argument("--url", default=None, metavar="URL", help=url_help)
    p_jobs.add_argument("--json", action="store_true",
                        help="emit the job list as JSON")

    p_job = sub.add_parser(
        "job", help="show one job (exit 0 done, 1 failed/cancelled)")
    p_job.add_argument("id", help="job ID (e.g. j000001; see `repro jobs`)")
    p_job.add_argument("--url", default=None, metavar="URL", help=url_help)
    p_job.add_argument("--follow", action="store_true",
                       help="poll until the job is terminal, printing "
                       "progress")
    p_job.add_argument("--cancel", action="store_true",
                       help="request cancellation instead of showing the job")
    p_job.add_argument("--json", action="store_true",
                       help="emit the (final) job view as JSON")
    return parser


_KIND_HEADINGS = {
    "graph_family": "graph families",
    "protocol": "protocols",
    "experiment": "experiments",
    "campaign": "campaigns",
    "benchmark": "benchmarks",
    "span": "trace spans",
}


def _cmd_list(args: argparse.Namespace) -> int:
    """Emit the registry catalog: kinds, capabilities, params, summaries.

    Key ordering is stable everywhere — kinds, entry names, and parameter
    names are sorted, and the JSON form is dumped with ``sort_keys`` — so
    the output is diffable and the api-surface CI job can pin it.
    """
    if args.kind is not None:
        # load only the requested kind's modules, not the whole surface
        catalog = {args.kind: registry.registry_for(args.kind).catalog()}
    else:
        catalog = registry.catalog()
    if args.json:
        print(json.dumps(catalog, indent=2, sort_keys=True))
        return 0
    for kind, entries in catalog.items():  # kinds sorted by catalog()
        print(f"{_KIND_HEADINGS.get(kind, kind)}:")
        for name, meta in entries.items():
            tags = f" [{', '.join(meta['capabilities'])}]" if meta["capabilities"] else ""
            params = ", ".join(f"{k}: {v}" for k, v in meta["params"].items())
            print(f"  {name:24s}{tags} {meta['summary']}".rstrip())
            if params:
                print(f"  {'':24s}   params: {params}")
            if meta["aliases"]:
                print(f"  {'':24s}   aliases: {', '.join(meta['aliases'])}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    experiments = registry.EXPERIMENT
    ids = list(experiments.names()) if args.experiment == "all" else [args.experiment]
    unknown = [i for i in ids if i not in experiments]
    if unknown:
        for name in unknown:
            print(experiments.unknown(name), file=sys.stderr)
        return 2
    tables = []
    for exp_id in ids:
        title, headers, rows = experiments.build(exp_id)
        if args.json:
            tables.append({"id": exp_id, "title": title, "headers": headers,
                           "rows": [list(r) for r in rows]})
        else:
            print(format_table(title, headers, rows))
    if args.json:
        print(json.dumps(tables, indent=2, default=str))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.engine import load_campaign, make_executor

    try:
        campaign = load_campaign(
            args.campaign, results_dir=args.results_dir, use_cache=not args.no_cache
        )
    except (ValueError, TypeError) as exc:  # malformed JSON / wrong-typed fields
        print(f"error: cannot parse {args.campaign}: {exc}", file=sys.stderr)
        return 2

    if args.executor == "serial" and args.jobs is not None:
        print("note: --jobs has no effect with the serial executor "
              "(use --executor thread|process)", file=sys.stderr)
    executor = make_executor(args.executor, args.jobs)
    # --progress/--no-progress; the default (None) means "on for a TTY",
    # so interactive runs get the live line and piped runs stay clean.
    progress = args.progress
    if progress is None:
        progress = sys.stderr.isatty()
    try:
        with executor:
            result = campaign.run(
                executor,
                shards=args.shards,
                shard_index=args.shard_index,
                resume=args.resume,
                trace=args.trace,
                progress=progress,
            )
    except KeyboardInterrupt:
        # the with-block already cancelled pending work and reaped the
        # pool; everything durably written so far replays on --resume
        print(f"\ninterrupted: workers released; partial results are "
              f"durable — re-run with --resume to finish", file=sys.stderr)
        return 130

    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    shard_note = ""
    if result.shards is not None:
        which = "all shards" if result.shard_index is None \
            else f"shard {result.shard_index}"
        shard_note = f" [{which} of {result.shards}]"
    print(f"campaign {summary['campaign']}{shard_note}: {summary['runs']} runs "
          f"({summary['cache_hits']} cached) via {summary['executor']} "
          f"in {summary['wall_seconds']}s")
    if result.resumed:
        print(f"  resumed    {result.resumed} (replayed from the durable stream)")
    for status, count in sorted(summary["statuses"].items()):
        print(f"  {status:10s} {count}")
    if summary["exact"] or summary["inexact"]:
        print(f"  exact      {summary['exact']}/{summary['exact'] + summary['inexact']}")
    if summary["jsonl"]:
        print(f"  records -> {summary['jsonl']}")
    if result.events_path is not None:
        print(f"  events  -> {result.events_path}")
    if result.metrics_path is not None:
        print(f"  metrics -> {result.metrics_path}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.errors import ShardIncomplete
    from repro.engine import ShardManifest, merge_shards

    try:
        path, count = merge_shards(args.results_dir, args.campaign)
    except ShardIncomplete as exc:
        # shards still running / torn — a retryable gate failure, not misuse
        print(f"not ready: {exc}", file=sys.stderr)
        try:
            manifest = ShardManifest.load(args.results_dir, args.campaign)
            done = manifest.completion(args.results_dir)
            print(f"  shards complete: {sum(done)}/{manifest.shards} "
                  f"{['done' if d else 'pending' for d in done]}",
                  file=sys.stderr)
        except ReproError:
            pass
        return 1
    if args.json:
        print(json.dumps({"campaign": args.campaign, "records": count,
                          "jsonl": str(path)}, indent=2, sort_keys=True))
        return 0
    print(f"merged {args.campaign}: {count} records -> {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from repro.results import Aggregator, DEFAULT_AXES, aggregate_table, iter_records

    by = tuple(a.strip() for a in args.by.split(",") if a.strip()) if args.by \
        else DEFAULT_AXES
    records_path = pathlib.Path(args.records)
    trend = args.trend or args.trends is not None
    if not records_path.exists():
        # A missing records file is an empty results dir — a domain state
        # ("nothing to report yet"), not CLI misuse: exit 1, no traceback.
        print(f"error: no records at {records_path} — the campaign has not "
              "written (or merged) its results yet", file=sys.stderr)
        return 1
    # Streaming + incremental: only the per-group rollups (and, with
    # --trend, the campaign-wide bit stats) stay in memory.
    agg = Aggregator(by=by, include_timing=args.timing)
    spec_hashes: list[str] = []
    bits = None
    if trend:
        from repro.results import spec_content_hash
        from repro.results.aggregate import RunningStats

        bits = RunningStats()
    for record in iter_records(records_path):
        agg.feed(record)
        if trend:
            spec_hashes.append(spec_content_hash(record["spec"]))
            bits.feed(record["result"]["max_message_bits"])
    if agg.records == 0:
        print(f"error: {records_path} holds no records; nothing to report",
              file=sys.stderr)
        return 1
    groups = agg.groups()

    trend_view = None
    if trend:
        trend_view = _report_trend(args, records_path, spec_hashes, bits)

    total_runs = sum(g["runs"] for g in groups)
    if args.json:
        payload = {"records": total_runs, "by": list(by), "groups": groups}
        if trend_view is not None:
            payload["trend"] = trend_view
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        title, headers, rows = aggregate_table(
            groups, by,
            title=f"{args.records} — {total_runs} runs by {', '.join(by)}",
            include_timing=args.timing,
        )
        print(format_table(title, headers, rows))
        if trend_view is not None:
            tail = trend_view["series"]
            print(f"  trend {trend_view['ledger']} (key {trend_view['key']}): "
                  f"{trend_view['points']} comparable run(s), "
                  f"p95 bits tail {tail}")
            if trend_view["regressed"]:
                print("  TREND REGRESSION: p95 message bits rose "
                      f"{len(tail) - 1} consecutive runs")
    if trend_view is not None and trend_view["regressed"]:
        return 1
    return 0


def _report_trend(args, records_path, spec_hashes, bits):
    """Append this report's trend point and check the series; return the
    dict view."""
    import pathlib

    from repro.results.trends import (
        DEFAULT_WINDOW, append_point, campaign_point, load_points, regressed,
        series, trends_path,
    )

    ledger = pathlib.Path(args.trends) if args.trends \
        else trends_path(records_path.parent)
    point = campaign_point(name=records_path.stem, spec_hashes=spec_hashes,
                           bits=bits)
    prior = series(load_points(ledger), kind="campaign", key=point["key"],
                   name=point["name"], metric="max_message_bits_p95")
    append_point(ledger, point)
    values = prior + [point["metrics"]["max_message_bits_p95"]]
    return {
        "ledger": str(ledger),
        "key": point["key"],
        "points": len(values),
        "metrics": point["metrics"],
        "series": values[-(DEFAULT_WINDOW + 1):],
        "regressed": regressed(values),
    }


#: Failure lines a verdict prints before pointing at ``--json``.
_SHOWN_FAILURES = 20


def _print_failures(failures: list) -> None:
    for failure in failures[:_SHOWN_FAILURES]:
        print(f"  FAIL [{failure.kind}] {failure.key}: {failure.detail}")
    if len(failures) > _SHOWN_FAILURES:
        print(f"  ... and {len(failures) - _SHOWN_FAILURES} more (use --json)")


def _print_verdict(title: str, verdict: Any, *, as_json: bool = False) -> int:
    """The one rendering of a pin verdict (``diff``, ``baseline check``, ``bench --gate``)."""
    if as_json:
        print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"{title}: {verdict.runs_checked} runs, "
              f"{len(verdict.failures)} failure(s)")
        _print_failures(verdict.failures)
        print("passed" if verdict.passed else "FAILED")
    return 0 if verdict.passed else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.results import diff_campaigns, load_records

    verdict = diff_campaigns(load_records(args.a), load_records(args.b),
                             bits_tolerance=args.bits_tolerance)
    return _print_verdict(f"diff {args.a} vs {args.b}", verdict, as_json=args.json)


def _cmd_baseline(args: argparse.Namespace) -> int:
    from repro.results import check, freeze, load_records

    if args.action is None:
        print("repro baseline: error: an action is required (freeze or check)",
              file=sys.stderr)
        return 2
    records = load_records(args.records)
    if args.action == "freeze":
        path = freeze(records, args.name, baselines_dir=args.dir)
        print(f"baseline {args.name} ({len(records)} runs) -> {path}")
        return 0
    verdict = check(records, args.baseline, bits_tolerance=args.bits_tolerance)
    return _print_verdict(f"baseline check {args.baseline}", verdict,
                          as_json=args.json)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        DEFAULT_OUTPUT,
        check_suite,
        freeze_suite,
        run_suite,
        write_suite,
    )

    report = run_suite(args.benchmarks or None, scale=args.scale,
                       repeats=args.repeats)
    output = DEFAULT_OUTPUT if args.output is None else args.output
    written = None
    if str(output) != "-":
        written = write_suite(report, output)
    if args.freeze:
        freeze_suite(report, args.freeze)

    verdict = check_suite(report, args.gate) if args.gate is not None else None
    trend_failures = []
    if args.trends is not None:
        trend_failures = _bench_trends(args.trends, report)
        if verdict is not None:
            # Fold trajectory failures into the gate verdict so one
            # structured verdict carries both kinds of regression.
            verdict.failures.extend(trend_failures)

    if args.json:
        payload = dict(report)
        if verdict is not None:
            payload["gate"] = verdict.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = []
        for name in report["suite"]:
            entry = report["results"][name]
            rows.append([
                name, entry["ops"], entry["bits"],
                entry["wall_seconds"]["mean"], entry["ops_per_second"],
            ])
        print(format_table(
            f"bench suite — {len(rows)} benchmark(s), scale "
            f"{report['scale']}, {report['repeats']} repeat(s)",
            ["benchmark", "ops", "bits", "mean s", "ops/s"], rows,
        ))
        for name, ratio in sorted(report["speedups"].items()):
            print(f"  speedup {name}: {ratio}x vs {name}-naive")
        if written is not None:
            print(f"  report -> {written}")
        if args.freeze:
            print(f"  baseline -> {args.freeze}")
        if verdict is not None:
            _print_verdict(f"gate {verdict.baseline_name}", verdict)
        else:
            _print_failures(trend_failures)
    failures = verdict.failures if verdict is not None else trend_failures
    return 1 if failures else 0


def _bench_trends(ledger: str, report: dict):
    """Append this run's per-benchmark p95 points and check each series.

    Returns the (possibly empty) list of trend
    :class:`~repro.results.baseline.CheckFailure` entries.
    """
    from repro.results.baseline import CheckFailure
    from repro.results.trends import (
        DEFAULT_WINDOW, append_point, bench_point, bench_trend_key,
        load_points, regressed, series,
    )

    failures = []
    key = bench_trend_key(report["suite"], report["scale"])
    points = load_points(ledger)
    for name in report["suite"]:
        p95 = report["results"][name]["wall_seconds"]["p95"]
        prior = series(points, kind="bench", key=key, name=name,
                       metric="wall_p95_seconds")
        append_point(ledger, bench_point(key=key, name=name,
                                         wall_p95_seconds=p95))
        values = prior + [p95]
        if regressed(values):
            tail = values[-(DEFAULT_WINDOW + 1):]
            failures.append(CheckFailure(
                "trend", name,
                f"wall p95 seconds rose {DEFAULT_WINDOW} consecutive "
                f"comparable runs: {tail}"))
    return failures


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.events import load_partial_events
    from repro.obs.report import render_trace_report, trace_report_data

    # Crash-tolerant read: a trace whose writer died mid-line is still
    # analyzable up to the torn tail.
    events, _torn, _good = load_partial_events(args.events)
    if args.json:
        print(json.dumps(trace_report_data(events, top=args.top),
                         indent=2, sort_keys=True))
        return 0
    print(render_trace_report(events, top=args.top, source=args.events))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import pathlib

    from repro.obs.events import metrics_path
    from repro.obs.metrics import load_metrics_file, render_prometheus

    source = pathlib.Path(args.metrics)
    if not source.suffix and len(source.parts) == 1:
        # a bare name means <results-dir>/<name>.metrics.json
        source = metrics_path(args.results_dir, args.metrics)
    payload = load_metrics_file(source)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(render_prometheus(payload["metrics"]), end="")
    return 0


def _serve_url(args: argparse.Namespace) -> str:
    import os

    from repro.serve.client import DEFAULT_URL

    return args.url or os.environ.get("REPRO_SERVE_URL") or DEFAULT_URL


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.http import DEFAULT_HOST, DEFAULT_PORT, ReproServer

    host = DEFAULT_HOST if args.host is None else args.host
    port = DEFAULT_PORT if args.port is None else args.port
    server = ReproServer(
        args.root, host=host, port=port, workers=args.workers,
        queue_limit=args.queue_limit, executor=args.executor,
        jobs=args.jobs, shard_timeout=args.shard_timeout,
        retries=args.retries,
    )

    def banner() -> None:
        # flush: subprocess tests parse this line for the bound port
        print(f"repro serve: listening on http://{server.host}:{server.port} "
              f"(root: {args.root}, workers: {args.workers}, "
              f"executor: {args.executor})", flush=True)

    try:
        asyncio.run(server.run_until_interrupted(ready=banner))
    except OSError as exc:  # bind failure: port in use, bad host
        print(f"error: cannot bind {host}:{port}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # Ctrl-C before the signal handler is live
        return 130
    print("repro serve: stopped", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import pathlib

    from repro.errors import QueueFull
    from repro.serve.client import ServeClient

    # A path-shaped argument is an inline spec; anything else is a
    # builtin campaign name the daemon resolves against its registry.
    source = pathlib.Path(args.campaign)
    name, spec = args.campaign, None
    if source.suffix == ".json" or source.exists():
        try:
            spec = json.loads(source.read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 JSON
            print(f"error: cannot read spec {args.campaign}: {exc}",
                  file=sys.stderr)
            return 2
        name = None
    client = ServeClient(_serve_url(args))
    try:
        job = client.submit(
            name, spec=spec, shards=args.shards, priority=args.priority,
            executor=args.executor, jobs=args.jobs,
            use_cache=not args.no_cache,
        )
    except QueueFull as exc:  # a full queue is a retryable domain refusal
        print(f"queue full: {exc} (retry in {exc.retry_after:.0f}s)",
              file=sys.stderr)
        return 1
    if args.follow:
        return _follow(client, job.id, as_json=args.json)
    if args.json:
        print(json.dumps(job.view, indent=2, sort_keys=True))
        return 0
    print(f"submitted {job.id}: {job.view['name']} x{job.view['shards']} "
          f"shard(s), priority {job.view['priority']} -> {client.url}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    jobs = ServeClient(_serve_url(args)).jobs()
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    rows = [[j["id"], j["name"], j["state"], j["priority"],
             f"{len(j['shards_done'])}/{j['shards']}", j["records"]]
            for j in jobs]
    print(format_table(
        f"{len(jobs)} job(s)",
        ["id", "campaign", "state", "priority", "shards", "records"], rows,
    ))
    return 0


def _follow(client: Any, job_id: str, *, as_json: bool) -> int:
    """Poll a job to a terminal state, printing progress transitions."""
    import time

    from repro.serve.store import TERMINAL_STATES

    last = None
    while True:
        view = client.job(job_id)
        progress = view.get("progress") or {}
        line = (f"{job_id}: {view['state']}  "
                f"shards {len(view['shards_done'])}/{view['shards']}  "
                f"records {progress.get('records', 0)}"
                f"/{progress.get('total', 0) or '?'}")
        if not as_json and line != last:
            print(line, flush=True)
            last = line
        if view["state"] in TERMINAL_STATES:
            break
        time.sleep(0.2)
    return _job_epilogue(view, as_json=as_json)


def _job_epilogue(view: dict[str, Any], *, as_json: bool) -> int:
    """Final job view -> output + exit code (0 done, 1 failed/cancelled)."""
    if as_json:
        print(json.dumps(view, indent=2, sort_keys=True))
    else:
        if view["state"] == "done" and view.get("jsonl"):
            print(f"  records -> {view['jsonl']}")
        if view.get("error"):
            print(f"  error: {view['error']}")
    return 0 if view["state"] == "done" else 1


def _cmd_job(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient
    from repro.serve.store import TERMINAL_STATES

    client = ServeClient(_serve_url(args))
    if args.cancel:
        view = client.cancel(args.id)
    elif args.follow:
        return _follow(client, args.id, as_json=args.json)
    else:
        view = client.job(args.id)
    if args.json:
        print(json.dumps(view, indent=2, sort_keys=True))
        return 0 if view["state"] not in ("failed", "cancelled") else 1
    progress = view.get("progress") or {}
    print(f"{view['id']}: {view['name']}  state={view['state']}  "
          f"priority={view['priority']}  "
          f"shards {len(view['shards_done'])}/{view['shards']}  "
          f"records {progress.get('records', view.get('records', 0))}"
          f"/{progress.get('total', 0) or '?'}")
    if view["state"] in TERMINAL_STATES:
        return _job_epilogue(view, as_json=False)
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "experiment": _cmd_experiment,
    "campaign": _cmd_campaign,
    "merge": _cmd_merge,
    "report": _cmd_report,
    "diff": _cmd_diff,
    "baseline": _cmd_baseline,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "job": _cmd_job,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        print("repro: error: a subcommand is required", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on --help (0) and usage errors (2); callers of
        # main() get a return code either way, never an exception.
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        raise  # a closed stdout (`| head`): __main__ exits 0 quietly
    except (ReproError, OSError) as exc:
        # A library refusal or an unreadable path is the user's to fix;
        # any other exception is a bug and keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
