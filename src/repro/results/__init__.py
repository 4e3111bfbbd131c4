"""repro.results — campaign analytics and the regression gate.

The read side of the engine's JSONL contract (DESIGN.md §3/§4): campaigns
become queryable datasets, and correctness/perf regressions become
machine-detectable instead of eyeballed.

* :mod:`~repro.results.records` — strict schema validation, ``spec_version``
  migration for streams written by older engines, and streaming iteration
  (million-record files are read line by line, never loaded whole);
* :mod:`~repro.results.aggregate` — group-by over spec axes with
  min/mean/max/p95 of message bits, exactness and fault-outcome rates, and
  the Lemma-2 normalization ``bits / (k² log₂ n)``;
* :mod:`~repro.results.baseline` — freeze a campaign to
  ``benchmarks/baselines/<name>.json``, :func:`~repro.results.baseline.check`
  a fresh run against it, or :func:`~repro.results.baseline.diff_campaigns`
  two campaigns run by run.  Both return one
  :class:`~repro.results.baseline.BaselineCheck` verdict (a list of
  ``CheckFailure``), keyed on spec content hash and built by one pin
  comparison; CI turns it into an exit code.

CLI: ``python -m repro report <file.jsonl>``, ``python -m repro diff <a> <b>``,
``python -m repro baseline freeze|check`` (all with ``--json``).

Everything is pure stdlib and — timing aside, which is opt-in in
``report`` and absent from every verdict — deterministic: identical
records produce byte-identical reports.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.results.records", (
        "RECORD_VERSION", "validate_record", "migrate_record", "iter_records",
        "load_records", "canonical_line", "spec_content_hash", "index_by_spec_hash")),
    ("repro.results.aggregate", (
        "DEFAULT_AXES", "Aggregator", "QuantileSketch", "RunningStats", "percentile",
        "normalized_bits", "aggregate", "aggregate_table")),
    ("repro.results.baseline", (
        "BASELINE_VERSION", "DEFAULT_BASELINES_DIR", "summarize_campaign", "freeze",
        "load_baseline", "CheckFailure", "BaselineCheck", "check", "diff_campaigns")),
))
