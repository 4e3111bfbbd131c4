"""Every loader of a JSON artifact is total over bytes.

A file that is not UTF-8 is malformed input like any other: each loader
raises its own domain error (never a bare ``UnicodeDecodeError``), and
the paths documented to skip unreadable files skip it.
"""

import pytest

from repro.engine import builtin_campaign
from repro.engine.shard import ShardManifest, read_done_marker
from repro.errors import BaselineError, ObsError, SchemaError, ShardError
from repro.obs.metrics import load_metrics_file
from repro.results.baseline import load_baseline
from repro.results.records import iter_records
from repro.serve.store import JobStore

NOT_UTF8 = b"\xff\xfe not utf-8\n"


@pytest.mark.parametrize("filename,load,error,match", [
    ("c.manifest.json", lambda d, p: ShardManifest.load(d, "c"),
     ShardError, r"c\.manifest\.json is not valid JSON"),
    ("c.done", lambda d, p: read_done_marker(d, "c", 0, 1),
     ShardError, r"c\.done is not valid JSON"),
    ("c.jsonl", lambda d, p: list(iter_records(p)),
     SchemaError, r"c\.jsonl:1: not valid JSON"),
    ("smoke.json", lambda d, p: load_baseline(p),
     BaselineError, "not valid JSON"),
    ("c.metrics.json", lambda d, p: load_metrics_file(p),
     ObsError, "not valid JSON"),
    ("jobs/j000001/job.json", lambda d, p: JobStore(d).recover(), None, None),
], ids=["manifest", "done-marker", "records", "baseline", "metrics",
        "job-store"])
def test_non_utf8_file_is_a_domain_error(tmp_path, filename, load, error, match):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(NOT_UTF8)
    if error is None:
        # JobStore.recover skips state files it cannot read
        assert load(tmp_path, path) == []
        assert path.exists()  # left in place for post-mortem
        return
    with pytest.raises(error, match=match):
        load(tmp_path, path)


def test_cached_campaign_skips_a_non_utf8_manifest(tmp_path):
    # durable_records skips a manifest that does not load, so the run
    # cache works next to one.
    (tmp_path / "junk.manifest.json").write_bytes(NOT_UTF8)
    first = builtin_campaign("smoke", results_dir=tmp_path).run().summary()
    again = builtin_campaign("smoke", results_dir=tmp_path).run().summary()
    assert again["runs"] == first["runs"] > 0
    assert again["cache_hits"] == again["runs"]
