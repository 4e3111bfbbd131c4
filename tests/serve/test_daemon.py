"""Subprocess daemon battery: kill -9 durability, SIGTERM hygiene.

These tests run ``python -m repro serve`` as a real child process — the
only way to exercise the whole stack at once: CLI entry, signal
handling, the durable store across true process death, and executor
teardown (no orphaned pool children).

Invariants under test:

* **kill -9 + restart = zero recomputation.**  A daemon killed without
  warning loses nothing durable; the restarted daemon's resume replays
  every record that had reached the shard streams and computes only the
  rest, and the finished output matches a direct engine run byte for
  byte (modulo the timing/cached sidecars).
* **SIGTERM leaves no orphans and a clean store.**  Graceful shutdown
  reaps every executor child (found via an environment marker in
  ``/proc``) and requeues interrupted jobs as ``queued`` so the next
  daemon resumes them.
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
import uuid

from repro.engine import Campaign, Scenario, SerialExecutor
from repro.engine.shard import shard_stream_path
from repro.serve import ServeClient

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _spec(seeds: int, sizes=(512,)) -> dict:
    scenario = Scenario(name="big", family="random_forest", sizes=tuple(sizes),
                        protocol="forest", seeds=tuple(range(seeds)))
    return Campaign([scenario], name="big", results_dir=None).to_dict()


def _strip(jsonl_text):
    out = []
    for line in jsonl_text.splitlines():
        d = json.loads(line)
        d.pop("timing")
        d.pop("cached")
        out.append(json.dumps(d, sort_keys=True))
    return out


def _start_daemon(root, *, executor="serial", workers=1, jobs=None, env=None):
    """Launch ``repro serve --port 0``; return (process, client)."""
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
           "--root", str(root), "--executor", executor,
           "--workers", str(workers)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    full_env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    full_env.update(env or {})
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=full_env)
    banner = proc.stdout.readline()  # blocks until the socket is bound
    match = re.search(r"listening on (http://[0-9.]+:\d+)", banner)
    assert match, f"no listening banner, got: {banner!r}"
    return proc, ServeClient(match.group(1))


def _stop(proc, sig=signal.SIGTERM, timeout=30):
    """Signal the daemon, reap it, close its stdout pipe; return the exit code."""
    proc.send_signal(sig)
    try:
        return proc.wait(timeout=timeout)
    finally:
        proc.stdout.close()


def _durable_records(results_dir, name, shards):
    """Complete (newline-terminated) record lines across all shard streams."""
    total = 0
    for i in range(shards):
        stream = shard_stream_path(results_dir, name, i, shards)
        if stream.exists():
            data = stream.read_bytes()
            total += data[: data.rfind(b"\n") + 1].count(b"\n")
    return total


def test_kill_dash_nine_then_restart_recomputes_nothing(tmp_path):
    root = tmp_path / "serve-data"
    n_records = 80
    proc, client = _start_daemon(root)
    try:
        job = client.submit(spec=_spec(n_records), shards=2)
        # let a few records become durable, then pull the plug mid-flight
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            view = client.job(job.id)
            if view["progress"]["records"] >= 3:
                break
            time.sleep(0.005)
        assert view["progress"]["records"] >= 3, "job never started streaming"
        assert view["state"] == "running"
    finally:
        _stop(proc, signal.SIGKILL)  # no cleanup, no goodbye

    results_dir = root / "jobs" / job.id / "results"
    durable = _durable_records(results_dir, "big", 2)
    assert 0 < durable < n_records, "the kill must land mid-campaign"

    proc2, client2 = _start_daemon(root)
    try:
        view = client2.wait(job.id, timeout=90)
        assert view["state"] == "done"
        assert view["records"] == n_records
        # zero recomputation: exactly the durable prefix was replayed,
        # everything else executed once — never a record computed twice
        assert view["resumed"] == durable
        served = _strip(pathlib.Path(view["jsonl"]).read_text())
    finally:
        _stop(proc2)

    direct_dir = tmp_path / "direct"
    campaign = Campaign.from_dict(_spec(n_records), results_dir=direct_dir,
                                  use_cache=False)
    result = campaign.run(SerialExecutor(), progress=False)
    direct = _strip(pathlib.Path(result.jsonl_path).read_text())
    assert served == direct


def _procs_with_marker(marker: bytes) -> list[int]:
    pids = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            environ = (entry / "environ").read_bytes()
        except OSError:
            continue  # raced a process exit, or no permission
        if marker in environ:
            pids.append(int(entry.name))
    return pids


def test_sigterm_leaves_no_orphans_and_a_clean_store(tmp_path):
    marker = f"REPRO_SERVE_TEST_{uuid.uuid4().hex}"
    root = tmp_path / "serve-data"
    proc, client = _start_daemon(
        root, executor="process", workers=1, jobs=2,
        env={"REPRO_TEST_MARKER": marker},
    )
    try:
        job = client.submit(spec=_spec(120, sizes=(256, 512)))
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.job(job.id)["state"] == "running":
                break
            time.sleep(0.005)
        assert client.job(job.id)["state"] == "running"
        assert len(_procs_with_marker(marker.encode())) >= 1  # daemon's tree
    finally:
        code = _stop(proc, timeout=60)
    assert code == 0  # graceful: drained, requeued, stopped

    # no process anywhere still carries the daemon's environment — the
    # executor's pool children were reaped, not abandoned
    assert _procs_with_marker(marker.encode()) == []

    # the store is clean: the interrupted job went back to queued with
    # its progress counters reset, ready for the next daemon's resume
    state = json.loads((root / "jobs" / job.id / "job.json").read_text())
    assert state["state"] == "queued"
    assert state["records"] == 0 and state["resumed"] == 0
    assert state["note"] == "requeued at daemon shutdown"

    # and a restarted daemon actually finishes it
    proc2, client2 = _start_daemon(root)
    try:
        view = client2.wait(job.id, timeout=90)
        assert view["state"] == "done"
        assert view["records"] == 240
    finally:
        _stop(proc2)
