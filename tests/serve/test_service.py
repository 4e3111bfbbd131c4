"""End-to-end service battery over a real socket.

A :class:`~repro.serve.http.ServerThread` hosts the daemon in-process;
every test talks to it through :class:`~repro.serve.client.ServeClient`
— the same wire path (hand-rolled HTTP/1.1, chunked streaming) the CLI
and a remote client use.  The acceptance invariant: a campaign run
through the service produces records identical (modulo the
``timing``/``cached`` sidecars) to the engine running it directly.
"""

import json
import pathlib

import pytest

from repro.engine import Campaign, SerialExecutor, builtin_campaign
from repro.errors import JobNotFound, QueueFull, ServeError
from repro.serve import ServeClient, ServerThread


def _strip(jsonl_text):
    """Record lines minus the nondeterministic sidecars, re-canonicalized."""
    out = []
    for line in jsonl_text.splitlines():
        d = json.loads(line)
        d.pop("timing")
        d.pop("cached")
        out.append(json.dumps(d, sort_keys=True))
    return out


@pytest.fixture()
def server(tmp_path):
    with ServerThread(tmp_path / "serve-data", workers=2,
                      executor="thread", queue_limit=4) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServeClient(server.url)


# --------------------------------------------------------------------- #
# the round trip
# --------------------------------------------------------------------- #


def test_sharded_job_matches_direct_run_byte_for_byte(client, tmp_path):
    job = client.submit("smoke", shards=2)
    view = job.wait(timeout=60)
    assert view["state"] == "done"
    assert view["jsonl"] and view["error"] is None
    served = _strip(pathlib.Path(view["jsonl"]).read_text())

    direct_dir = tmp_path / "direct"
    campaign = builtin_campaign("smoke", results_dir=direct_dir, use_cache=False)
    result = campaign.run(SerialExecutor(), progress=False)
    direct = _strip(pathlib.Path(result.jsonl_path).read_text())

    assert served == direct  # same records, same order, same digests
    assert view["records"] == len(direct)


def test_records_stream_and_follow(client):
    job = client.submit("smoke", shards=2)
    # follow=True holds the socket through the whole run: every record
    # arrives exactly once, and the stream terminates at the terminal state
    followed = list(job.records(follow=True))
    view = job.wait(timeout=60)
    assert len(followed) == view["records"] > 0
    # a post-completion read streams the canonical merged file: the same
    # records, reassembled into spec order (the live follow is shard-major)
    key = lambda d: json.dumps(d, sort_keys=True)
    replay = list(client.records(job.id))
    assert sorted(replay, key=key) == sorted(followed, key=key)
    with pytest.raises(JobNotFound):
        list(client.records("j999999"))


def test_inline_spec_submission_and_summary(client):
    spec = Campaign.from_dict({
        "name": "inline",
        "scenarios": [{"name": "s", "family": "random_forest", "sizes": [12, 16],
                       "protocol": "forest", "seeds": [0, 1]}],
    }, results_dir=None).to_dict()
    job = client.submit(spec=spec, shards=2)
    assert job.wait(timeout=60)["state"] == "done"
    summary = job.summary(by=("n",))
    assert summary["records"] == 4
    assert [g["group"]["n"] for g in summary["groups"]] == [12, 16]


def test_job_view_exposes_per_shard_progress(client):
    job = client.submit("smoke", shards=2)
    view = job.wait(timeout=60)
    view = client.job(job.id)
    progress = view["progress"]
    assert progress["records"] == progress["total"] == view["records"]
    assert [s["index"] for s in progress["shards"]] == [0, 1]
    assert all(s["done"] for s in progress["shards"])
    assert sum(s["total"] for s in progress["shards"]) == progress["total"]
    assert "_started_clock" not in view  # daemon-internal keys never leak


def test_health_and_listing(client):
    import repro

    job = client.submit("smoke")
    job.wait(timeout=60)
    health = client.health()
    assert health["status"] == "ok"
    assert health["version"] == repro.__version__
    assert health["jobs"]["done"] >= 1
    listed = client.jobs()
    assert [j["id"] for j in listed] == sorted(j["id"] for j in listed)


# --------------------------------------------------------------------- #
# error surface
# --------------------------------------------------------------------- #


def test_error_mapping_over_the_wire(client):
    with pytest.raises(JobNotFound, match="j424242"):
        client.job("j424242")
    with pytest.raises(ServeError, match="smoke"):  # did-you-mean as a 400
        client.submit("smokee")
    with pytest.raises(ServeError, match="exactly one"):
        client.submit()
    with pytest.raises(ServeError, match="cannot reach"):
        ServeClient("http://127.0.0.1:9", timeout=2).health()


def test_campaign_name_cannot_escape_the_job_dir(server, tmp_path):
    import http.client
    import urllib.parse

    spec = {"name": "../x", "scenarios": [
        {"name": "s", "family": "random_forest", "sizes": [12],
         "protocol": "forest", "seeds": [0]}]}
    url = urllib.parse.urlsplit(server.url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        conn.request("POST", "/v1/jobs", body=json.dumps({"spec": spec}),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        body = json.loads(resp.read())
    finally:
        conn.close()
    assert resp.status == 400
    assert "plain file name" in body["error"]
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith("x.")]
    assert ServeClient(server.url).jobs() == []


def test_backpressure_and_cancel(tmp_path):
    # workers=0: nothing drains, so admission and cancel are deterministic
    with ServerThread(tmp_path / "bp", workers=0, executor="serial",
                      queue_limit=1) as srv:
        client = ServeClient(srv.url)
        job = client.submit("smoke")
        assert job.state == "queued"
        with pytest.raises(QueueFull) as exc_info:
            client.submit("smoke")
        assert exc_info.value.retry_after >= 1.0

        cancelled = job.cancel()
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServeError, match="already cancelled"):
            job.cancel()  # a second cancel is a 409 conflict
        # the cancelled job released its queue slot
        assert client.submit("smoke").state == "queued"


# --------------------------------------------------------------------- #
# /metrics conformance
# --------------------------------------------------------------------- #


def test_metrics_text_conformance(client):
    client.submit("smoke", shards=2).wait(timeout=60)
    text = client.metrics_text()
    # Prometheus text format: TYPE headers precede their (repro_-prefixed)
    # series; the wall-seconds histogram renders as _count/_sum/_min/_max
    for name, kind in (("serve_jobs", "gauge"),
                       ("serve_queue_depth", "gauge"),
                       ("serve_workers", "gauge"),
                       ("serve_jobs_submitted", "counter"),
                       ("serve_jobs_finished", "counter"),
                       ("serve_job_wall_seconds_count", "counter"),
                       ("serve_job_wall_seconds_sum", "counter"),
                       ("serve_job_wall_seconds_min", "gauge"),
                       ("serve_job_wall_seconds_max", "gauge")):
        assert f"# TYPE repro_{name} {kind}" in text, f"missing {name}"
    assert 'repro_serve_jobs{state="done"} 1' in text
    assert 'repro_serve_jobs{state="queued"} 0' in text  # zero series stay
    assert 'repro_serve_jobs_finished{state="done"} 1' in text
    assert "repro_serve_job_wall_seconds_count 1" in text
    assert "repro_serve_queue_depth 0" in text
    # every TYPE header names a kind Prometheus accepts
    for line in text.splitlines():
        if line.startswith("# TYPE"):
            assert line.split()[-1] in ("counter", "gauge")


def test_metrics_fold_campaign_snapshots(client):
    client.submit("smoke").wait(timeout=60)
    client.submit("smoke").wait(timeout=60)
    text = client.metrics_text()
    assert "repro_serve_job_wall_seconds_count 2" in text
    # campaign-level counters folded into the fleet registry: two fresh
    # smoke campaigns double a single run's count
    runs = [line for line in text.splitlines()
            if line.startswith("repro_runs_started")]
    assert runs and float(runs[0].split()[-1]) == 16.0  # 2 x 8 smoke runs
