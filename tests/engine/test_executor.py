"""Executor backends: ordered maps, exception propagation, the factory."""

import pytest

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
