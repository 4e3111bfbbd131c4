"""Parity pins: the optimized sketching/bits hot paths change *nothing*.

Three layers of evidence, mirroring the Session-vs-Campaign identity
contract in ``tests/api/test_session.py``:

* micro — optimized packing loops produce values identical to the
  plain reference implementations on fuzzed inputs (the AGM sketch
  codec has its own suite, ``tests/sketching/test_agm_parity.py``);
* speedup-floor pairs — both sides of each pair hit one pinned digest
  (``tests/bench/test_speedup_floors.py``);
* campaign — the ``smoke`` campaign (which exercises the AGM sketch path
  end to end) still matches the frozen pre-optimization baseline
  ``benchmarks/baselines/smoke.json``, digest for digest and bit for bit.
"""

import json
import pathlib
import random

import pytest

from repro.api import Session
from repro.bits.writer import BitWriter
from repro.results.baseline import check as baseline_check
from repro.sketching.l0sampler import L0Sampler, L0SamplerParams


class TestMicroParity:
    def test_l0_update_still_validates_index(self):
        sampler = L0Sampler(L0SamplerParams.derive(16, 0))
        with pytest.raises(ValueError, match="outside"):
            sampler.update(16, 1)
        with pytest.raises(ValueError, match="outside"):
            sampler.update(-1, 1)

    def test_write_many_matches_write_bits(self):
        rng = random.Random(5)
        fields = []
        for _ in range(2500):  # > one 8192-bit chunk, so the splice path runs
            width = rng.randrange(0, 64)
            fields.append((rng.getrandbits(width) if width else 0, width))
        batched = BitWriter()
        batched.write_many(fields)
        sequential = BitWriter()
        for value, width in fields:
            sequential.write_bits(value, width)
        assert len(batched) == len(sequential)
        assert batched.to_int() == sequential.to_int()
        assert batched.to_bytes() == sequential.to_bytes()

    def test_write_many_rejects_bad_fields_atomically(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        with pytest.raises(Exception, match="does not fit"):
            writer.write_many([(1, 1), (9, 2)])
        assert writer.to_int() == (0b101, 3)  # rejected batch wrote nothing


SMOKE_BASELINE = pathlib.Path(__file__).parents[2] / "benchmarks" / "baselines" / "smoke.json"


class TestCampaignParity:
    """The acceptance pin: optimized paths, byte-identical records.

    ``benchmarks/baselines/smoke.json`` was frozen *before* the hot-path
    work and pins output digests and exact bit counts for runs exercising
    forest reconstruction, degeneracy, and the AGM sketch — rerunning the
    same grid on the optimized code must reproduce it exactly.
    """

    def test_smoke_campaign_matches_frozen_pre_optimization_baseline(self):
        from repro.engine import builtin_campaign

        result = builtin_campaign("smoke", results_dir=None, use_cache=False).run()
        verdict = baseline_check(
            [r.to_json_dict() for r in result.records], SMOKE_BASELINE,
        )
        assert verdict.passed, [f.detail for f in verdict.failures]

    def test_session_sketch_run_matches_baseline_entry(self):
        """A fluent Session re-run of the smoke sketch scenario lands on the
        same content hash, digest, and bit counts the baseline froze."""
        run = (Session("sketch-parity")
               .graphs("two_components", n=16, seeds=0)
               .protocol("agm_connectivity")
               .shuffle()
               .run())
        (record,) = run.records
        baseline = json.loads(SMOKE_BASELINE.read_text())
        entry = baseline["by_hash"][record.spec.content_hash()]
        assert entry["output_digest"] == record.output_digest
        assert entry["max_message_bits"] == record.max_message_bits
        assert entry["total_message_bits"] == record.total_message_bits
