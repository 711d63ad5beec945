"""ExecBackend protocol: ordering, lifecycle, factories, metrics."""

import threading
import time

import pytest

import repro.exec.procpool as procpool_module
from repro.exec import (
    BACKEND_KINDS,
    ProcessBackend,
    SerialBackend,
    make_backend,
)
from repro.obs import MetricsRegistry, Tracer, activated

from tests.exec.drivers import DRIVERS, drive


def _square(x):
    return x * x


def _add(x, y):
    return x + y


def _map_on(kind, workers, fn, *columns):
    """``fn`` over ``columns`` on a fresh backend of ``kind``."""
    with make_backend(kind, workers=workers) as backend:
        return backend.map(fn, *columns)


class TestMapContract:
    """Order preservation and column validation, every backend/driver."""

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_order_preserved(self, driver):
        assert drive(
            driver, lambda kind: _map_on(kind, 2, _square, range(20))
        ) == [i * i for i in range(20)]

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_multi_column_zip(self, driver):
        assert drive(
            driver,
            lambda kind: _map_on(kind, 2, _add, [1, 2, 3], [10, 20, 30]),
        ) == [11, 22, 33]

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError, match="equal lengths"):
            SerialBackend().map(_add, [1, 2], [1, 2, 3])

    def test_empty_columns_yield_empty(self):
        with ProcessBackend(4) as backend:
            assert backend.map(_square, []) == []


class TestIntrospection:
    """Workers / fan-out flags drive the callers' choices."""

    def test_effective_workers(self):
        assert SerialBackend().effective_workers() == 1
        assert ProcessBackend(3).effective_workers() == 3

    def test_can_fan_out(self):
        assert not SerialBackend().can_fan_out()
        assert not ProcessBackend(1).can_fan_out()
        assert ProcessBackend(2).can_fan_out()


class TestFactory:
    """make_backend: names to instances, knob validation."""

    def test_kind_table(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("serial", workers=3), SerialBackend)
        # One worker cannot fan out, so no pool backend is built.
        assert isinstance(make_backend("process", workers=0), SerialBackend)
        assert isinstance(make_backend("process", workers=1), SerialBackend)
        assert isinstance(
            make_backend("process", workers=2), ProcessBackend
        )

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_workers_floor_at_one(self):
        assert make_backend("process", workers=0).effective_workers() == 1

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_negative_workers_raise(self, kind):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            make_backend(kind, workers=-1)

    def test_invalid_worker_counts_raise(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessBackend(0)
        with pytest.raises(ValueError, match="chunk_size"):
            ProcessBackend(2, chunk_size=0)


class _SlowCountingExecutor:
    """Executor double whose construction is slow enough to race.

    Counts constructions and shutdowns on the class; ``map`` runs the
    tasks inline, so the double works for any backend.
    """

    created = 0
    closed = 0

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        time.sleep(0.05)

    def map(self, fn, *columns, chunksize=1):
        return [fn(*args) for args in zip(*columns)]

    def shutdown(self, wait=True, cancel_futures=False):
        type(self).closed += 1


def _race_first_maps(backend, callers=4):
    """``callers`` threads hit ``backend.map`` at once, then close it."""
    barrier = threading.Barrier(callers)
    results = [None] * callers

    def call(slot):
        barrier.wait()
        results[slot] = backend.map(_square, range(8))

    threads = [
        threading.Thread(target=call, args=(slot,))
        for slot in range(callers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    backend.close()
    return results


class TestLazyPoolRace:
    """Concurrent first maps share one lazily built executor."""

    @pytest.fixture
    def slow_executor(self, monkeypatch):
        _SlowCountingExecutor.created = 0
        _SlowCountingExecutor.closed = 0
        monkeypatch.setattr(
            procpool_module, "ProcessPoolExecutor", _SlowCountingExecutor
        )
        return _SlowCountingExecutor

    @pytest.mark.parametrize("backend_class", [ProcessBackend])
    def test_one_executor_built_and_shut_down(
        self, slow_executor, backend_class
    ):
        results = _race_first_maps(backend_class(2))
        assert results == [[i * i for i in range(8)]] * 4
        assert slow_executor.created == 1
        assert slow_executor.closed == 1


class TestObservability:
    """Fan-outs record kind/worker/chunk counts — and only record."""

    def test_map_records_kind_tasks_and_workers(self):
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            with ProcessBackend(3) as backend:
                backend.map(_square, range(7))
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["exec.map.process"] == 1
        assert snapshot["counters"]["exec.tasks"] == 7
        assert snapshot["gauges"]["exec.workers"] == 3

    def test_process_map_records_chunks(self):
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            with ProcessBackend(2, chunk_size=3) as backend:
                backend.map(_square, range(12))
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["exec.map.process"] == 1
        assert snapshot["gauges"]["exec.chunks"] == 4

    def test_metered_results_equal_bare_results(self):
        with ProcessBackend(3) as backend:
            bare = backend.map(_square, range(9))
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            with ProcessBackend(3) as backend:
                metered = backend.map(_square, range(9))
        assert metered == bare

    def test_backend_kinds_is_the_cli_contract(self):
        assert BACKEND_KINDS == ("serial", "process")
