"""One injected execution backend, warm-reused and never closed by callees.

Guards the backend contract: a parallel runner fans every parallel
stage of every run out on the one backend it was handed, so exactly
one executor is built no matter how many stages or runs execute; the
runner never shuts that backend down (whoever builds a backend closes
it); a workers-N churn study uses exactly one executor end to end,
across every engine stage, while the call-centre analysis builds none;
and parallel output stays bit-identical to serial in every
configuration.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core import BIVoCConfig, run_insight_analysis
from repro.core.usecases.churn import run_churn_study
from repro.engine import Document, MapStage, PipelineRunner
from repro.exec import ProcessBackend
import repro.exec.procpool as procpool_module
from repro.obs import MetricsRegistry, Tracer, activated
from repro.synth.carrental import CarRentalConfig, generate_car_rental
from repro.synth.telecom import TelecomConfig, generate_telecom


class Square(MapStage):
    """value <- doc_id ** 2 (pure)."""

    name = "square"

    def process_document(self, document):
        """Record the squared id."""
        document.put("value", document.doc_id ** 2)


class Offset(MapStage):
    """value <- value + 7 (pure)."""

    name = "offset"

    def process_document(self, document):
        """Shift the running value."""
        document.put("value", document.get("value") + 7)


class Offset2(Offset):
    """Second offset stage (stage names must be unique per graph)."""

    name = "offset-2"


def _docs(n):
    return [Document(doc_id=i) for i in range(n)]


def _values(result):
    return [d.get("value") for d in result.documents]


def _increment(x):
    return x + 1


class CountingExecutor(ProcessPoolExecutor):
    """ProcessPoolExecutor that counts constructions and shutdowns."""

    created = 0
    closed = 0

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        super().__init__(*args, **kwargs)

    def shutdown(self, *args, **kwargs):
        type(self).closed += 1
        super().shutdown(*args, **kwargs)


@pytest.fixture
def counting(monkeypatch):
    """Patch the process backend's executor class and reset counters."""
    CountingExecutor.created = 0
    CountingExecutor.closed = 0
    monkeypatch.setattr(
        procpool_module, "ProcessPoolExecutor", CountingExecutor
    )
    return CountingExecutor


class TestOneExecutorPerRunner:
    def test_single_pool_spans_all_stages(self, counting):
        with ProcessBackend(3) as backend:
            runner = PipelineRunner(
                [Square(), Offset(), Offset2()], batch_size=4,
                backend=backend,
            )
            result = runner.run(_docs(32))
            # Three parallel stages, one executor.
            assert counting.created == 1
            assert counting.closed == 0
            assert all(s.parallel for s in result.report.stages)
        # The backend's own exit released it.
        assert counting.closed == 1

    def test_runs_share_the_warm_pool(self, counting):
        with ProcessBackend(2) as backend:
            runner = PipelineRunner(
                [Square()], batch_size=4, backend=backend
            )
            runner.run(_docs(16))
            runner.run(_docs(16))
            # Warm-reuse: the second run did not respawn workers.
            assert counting.created == 1
        assert counting.closed == 1

    def test_serial_run_builds_no_pool(self, counting):
        runner = PipelineRunner([Square(), Offset()], batch_size=4)
        result = runner.run(_docs(16))
        assert counting.created == 0
        assert not any(s.parallel for s in result.report.stages)

    def test_workers_one_builds_no_pool(self, counting):
        with ProcessBackend(1) as backend:
            result = PipelineRunner(
                [Square()], batch_size=4, backend=backend
            ).run(_docs(16))
        assert counting.created == 0
        assert not any(s.parallel for s in result.report.stages)


class TestExternalPool:
    def test_injected_pool_is_used_and_kept_open(self, counting):
        with ProcessBackend(3) as backend:
            runner = PipelineRunner(
                [Square(), Offset()], batch_size=4, backend=backend
            )
            first = runner.run(_docs(24))
            second = runner.run(_docs(24))
            # The runner used the injected backend and left it open
            # for the next caller.
            assert counting.created == 1
            assert counting.closed == 0
            assert all(s.parallel for s in first.report.stages)
            assert backend.map(_increment, [41, 1]) == [42, 2]
        assert counting.closed == 1
        assert _values(first) == _values(second)


class TestOneExecutorPerStudy:
    """A workers-N churn study builds one executor and closes it once;
    the call-centre analysis runs inline and builds none."""

    def test_insight_analysis(self, counting):
        corpus = generate_car_rental(CarRentalConfig(
            n_agents=4, n_days=2, calls_per_agent_per_day=3,
            n_customers=40, seed=3,
        ))
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            study = run_insight_analysis(
                corpus, BIVoCConfig(use_asr=False)
            )
        assert not any(
            s.parallel for s in study.analysis.stage_report.stages
        )
        assert "exec.map.process" not in metrics.snapshot()["counters"]
        assert counting.created == 0

    def test_churn_study(self, counting):
        corpus = generate_telecom(TelecomConfig(
            scale=0.004, n_customers=400, email_churner_fraction=0.2,
            seed=1,
        ))
        result = run_churn_study(
            corpus, channel="email", workers=2, driver_index=True,
        )
        # 190 emails are more than one default batch of 64.
        assert any(s.parallel for s in result.stage_report.stages)
        assert counting.created == 1
        assert counting.closed == 1


class TestBitIdentity:
    def test_parallel_matches_serial(self):
        serial = PipelineRunner(
            [Square(), Offset()], batch_size=4
        ).run(_docs(40))
        with ProcessBackend(4) as backend:
            hoisted = PipelineRunner(
                [Square(), Offset()], batch_size=4, backend=backend
            ).run(_docs(40))
        assert _values(hoisted) == _values(serial)
        assert [d.doc_id for d in hoisted.documents] == list(range(40))
