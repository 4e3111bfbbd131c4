"""Executor backends: ordered maps, exception propagation, the factory,
and the process pool's speedup on the builtin ``bench`` campaign."""

import time

import pytest

from repro.engine import builtin_campaign
from repro.engine.executor import (
    EXECUTOR_KINDS,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    default_jobs,
    make_executor,
)
from repro.errors import ProtocolError


def _square(x):
    return x * x


ALL_BACKENDS = [SerialExecutor, ThreadPoolExecutor, ProcessPoolExecutor]


@pytest.fixture(params=ALL_BACKENDS, ids=lambda c: c.kind)
def executor(request):
    if request.param is SerialExecutor:
        ex = SerialExecutor()
    else:
        ex = request.param(2)
    with ex:
        yield ex


class TestMap:
    def test_preserves_order(self, executor):
        assert executor.map(_square, range(20)) == [x * x for x in range(20)]

    def test_empty(self, executor):
        assert executor.map(_square, []) == []

    def test_exception_propagates(self, executor):
        with pytest.raises(ZeroDivisionError):
            executor.map(_raise_on_three, [1, 2, 3, 4])


def _raise_on_three(x):
    if x == 3:
        raise ZeroDivisionError("three")
    return x


class TestImap:
    """``imap`` is the one primitive; ``map`` and ``imap_observed`` derive from it."""

    def test_map_accepts_one_shot_iterable(self, executor):
        assert executor.map(_square, (x for x in range(10))) == [x * x for x in range(10)]

    def test_imap_streams_in_order(self, executor):
        stream = executor.imap(_square, range(12))
        assert next(stream) == 0
        assert list(stream) == [x * x for x in range(1, 12)]

    def test_imap_observed_tags_every_result(self, executor):
        observed = list(executor.imap_observed(_square, range(8)))
        assert [o.result for o in observed] == [x * x for x in range(8)]
        for result, worker, seconds in observed:
            pid, _, thread = worker.partition(":")
            assert pid.isdigit() and thread
            assert seconds >= 0.0

    def test_serial_imap_is_lazy(self):
        seen = []

        def record(x):
            seen.append(x)
            return x

        stream = SerialExecutor().imap(record, [1, 2, 3])
        assert seen == []
        assert next(stream) == 1 and seen == [1]


class TestFactory:
    def test_known_kinds(self):
        assert set(EXECUTOR_KINDS) == {"serial", "thread", "process"}
        for kind in EXECUTOR_KINDS:
            with make_executor(kind, 2) as ex:
                assert ex.kind == kind

    def test_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown executor"):
            make_executor("gpu")

    def test_bad_jobs(self):
        with pytest.raises(ProtocolError, match="jobs"):
            ThreadPoolExecutor(0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_pool_reusable_after_close(self):
        ex = ThreadPoolExecutor(2)
        assert ex.map(_square, [2]) == [4]
        ex.close()
        assert ex.map(_square, [3]) == [9]  # lazily rebuilds the pool
        ex.close()


def _timed_bench_campaign(executor):
    campaign = builtin_campaign("bench", results_dir=None, use_cache=False)
    t0 = time.perf_counter()
    result = campaign.run(executor)
    elapsed = time.perf_counter() - t0
    assert len(result.records) == 32
    assert all(r.status == "ok" and r.exact for r in result.records)
    return elapsed, [r.output_digest for r in result.records]


def test_process_pool_at_least_twice_serial():
    """EXP-ENGINE: with >= 4 visible cores the process pool runs the 32
    independent n=512 reconstructions of the ``bench`` campaign >= 2x
    faster than serial.  Fewer cores give no parallel hardware to show
    it on, so the test skips before running anything."""
    cores = default_jobs()
    if cores < 4:
        pytest.skip(f"only {cores} core(s) visible: no parallel hardware "
                    "to show the >= 2x process-pool speedup on")
    serial_s, serial_digests = _timed_bench_campaign(SerialExecutor())
    with ProcessPoolExecutor() as ex:
        ex.map(_square, range(ex.jobs * 2))  # spawn the workers off the clock
        pool_s, pool_digests = _timed_bench_campaign(ex)
    assert pool_digests == serial_digests
    assert serial_s / pool_s >= 2.0, (
        f"expected >= 2x process-pool speedup on {cores} cores, "
        f"got {serial_s / pool_s:.2f}x"
    )
