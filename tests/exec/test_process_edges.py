"""ProcessBackend edge paths: degradation, pickling, teardown, faults."""

import pickle

import pytest

from concurrent.futures.process import BrokenProcessPool

import repro.exec.procpool as procpool_module
from repro.engine import Document, MapStage, PipelineRunner
from repro.exec import BackendError, ProcessBackend
from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_point,
    injecting,
)

from tests.exec.drivers import on_worker_thread


def _double(x):
    return x * 2


def _fault_then_double(x):
    """A worker task passing through the ``exec:worker`` fault point."""
    fault_point("exec:worker")
    return x * 2


def _exec_worker_plan():
    """A plan that kills the first ``exec:worker`` hit, fatally."""
    return FaultPlan(
        seed=3,
        specs=(FaultSpec(point="exec:worker", kind="fatal", times=1),),
    )


class _ExplodingExecutor:
    """Stands in for ProcessPoolExecutor to prove no pool is built."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was spawned")


class _FakePool:
    """A pool double whose ``map`` raises a scripted exception."""

    def __init__(self, exc):
        self.exc = exc
        self.shutdowns = 0

    def map(self, fn, *columns, chunksize=1):
        raise self.exc

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns += 1


class TestInlineDegradation:
    """workers=1 (or one task) never spawns worker processes."""

    def test_single_worker_runs_inline(self, monkeypatch):
        monkeypatch.setattr(
            procpool_module, "ProcessPoolExecutor", _ExplodingExecutor
        )
        with ProcessBackend(1) as backend:
            assert backend.map(_double, range(6)) == [
                0, 2, 4, 6, 8, 10
            ]

    def test_single_task_runs_inline(self, monkeypatch):
        monkeypatch.setattr(
            procpool_module, "ProcessPoolExecutor", _ExplodingExecutor
        )
        with ProcessBackend(4) as backend:
            assert backend.map(_double, [21]) == [42]

    def test_inline_path_even_runs_unpicklable_payloads(
        self, monkeypatch
    ):
        # Inline execution never crosses a process boundary, so a
        # closure is fine there — only real fan-out needs pickling.
        monkeypatch.setattr(
            procpool_module, "ProcessPoolExecutor", _ExplodingExecutor
        )
        with ProcessBackend(1) as backend:
            assert backend.map(lambda x: x + 1, range(3)) == [1, 2, 3]


class TestPicklingPreflight:
    """Unpicklable payloads fail fast, clearly, and name the unit."""

    def test_unpicklable_payload_names_the_stage(self):
        with ProcessBackend(2) as backend:
            with pytest.raises(BackendError, match="stage:annotate"):
                backend.map(
                    lambda x: x, range(4), label="stage:annotate"
                )
            # The preflight fired before any submission: no pool yet.
            assert backend._pool is None

    def test_unlabelled_payload_still_identified(self):
        with ProcessBackend(2) as backend:
            with pytest.raises(BackendError, match="not picklable"):
                backend.map(lambda x: x, range(4))

    def test_runner_surfaces_the_stage_name(self):
        # An unpicklable *stage* (holds a lambda) through the real
        # runner: the error must name the stage, not a pickle frame.
        class Unpicklable(MapStage):
            name = "poison"

            def __init__(self):
                self.fn = lambda value: value

            def process_document(self, document):
                document.put("value", self.fn(document.doc_id))

        with ProcessBackend(2) as backend:
            with PipelineRunner(
                [Unpicklable()], batch_size=2, backend=backend
            ) as runner:
                with pytest.raises(BackendError, match="stage:poison"):
                    runner.run([Document(doc_id=i) for i in range(8)])


class TestTeardown:
    """The pool dies with the backend — however the backend dies."""

    def test_context_exit_shuts_the_pool_down(self):
        with ProcessBackend(2) as backend:
            assert backend.map(_double, range(8)) == [
                i * 2 for i in range(8)
            ]
            assert backend._pool is not None
        assert backend._pool is None

    def test_close_is_idempotent(self):
        backend = ProcessBackend(2)
        backend.map(_double, range(8))
        backend.close()
        backend.close()
        assert backend._pool is None

    def test_keyboard_interrupt_shuts_down_and_reraises(self):
        backend = ProcessBackend(2)
        fake = _FakePool(KeyboardInterrupt())
        backend._pool = fake
        with pytest.raises(KeyboardInterrupt):
            backend.map(_double, range(8))
        assert fake.shutdowns == 1
        assert backend._pool is None

    def test_broken_pool_becomes_backend_error(self):
        backend = ProcessBackend(2)
        fake = _FakePool(BrokenProcessPool("worker died"))
        backend._pool = fake
        with pytest.raises(BackendError, match="process pool died"):
            backend.map(_double, range(8), label="analytic:assoc2d")
        assert fake.shutdowns == 1
        assert backend._pool is None

    def test_map_after_close_respawns(self):
        with ProcessBackend(2) as backend:
            backend.map(_double, range(8))
            backend.close()
            # A fresh map after close lazily respawns the pool.
            assert backend.map(_double, range(8)) == [
                i * 2 for i in range(8)
            ]


class TestChunking:
    """About four chunks per worker, overridable, never zero."""

    def test_default_chunking(self):
        assert ProcessBackend(4)._chunk_for(32) == 2
        assert ProcessBackend(2)._chunk_for(100) == 13
        assert ProcessBackend(8)._chunk_for(3) == 1

    def test_override_wins(self):
        assert ProcessBackend(4, chunk_size=7)._chunk_for(1000) == 7


class TestWorkerFaults:
    """An injected crash in one worker surfaces as the original error."""

    def test_process_worker_fault_surfaces_with_remote_traceback(self):
        # Fork start method: the armed injector (a module global) is
        # inherited by workers spawned inside the injecting block.
        with injecting(_exec_worker_plan().injector()):
            with ProcessBackend(2, mp_context="fork") as backend:
                with pytest.raises(InjectedFault) as err:
                    backend.map(_fault_then_double, range(8))
        assert err.value.point == "exec:worker"
        # The stdlib chains the worker-side traceback as __cause__, so
        # the failure reads exactly like the serial one would.
        assert err.value.__cause__ is not None
        assert "exec:worker" in str(err.value)

    def test_thread_worker_fault_surfaces(self):
        # A pool forked from a worker thread still inherits the armed
        # injector and re-raises its fault.
        def fan_out():
            with ProcessBackend(2, mp_context="fork") as backend:
                return backend.map(_fault_then_double, range(8))

        with injecting(_exec_worker_plan().injector()):
            with pytest.raises(InjectedFault) as err:
                on_worker_thread(fan_out)
        assert err.value.point == "exec:worker"
        assert err.value.__cause__ is not None

    def test_injected_fault_pickles_round_trip(self):
        fault = InjectedFault("exec:worker", 5)
        clone = pickle.loads(pickle.dumps(fault))
        assert isinstance(clone, InjectedFault)
        assert clone.point == "exec:worker"
        assert clone.hit == 5
        assert str(clone) == str(fault)
