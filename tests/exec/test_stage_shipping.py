"""A parallel stage ships once per worker, in balanced pieces.

The runner pickles a pure stage once per fan-out and cuts the stage's
live documents into ``max(ceil(n / batch_size), 2 * workers)`` equal
contiguous pieces (never more pieces than documents).  Each worker
unpickles the stage the first time it meets the fan-out's key and runs
all its pieces on that one copy.

The oracle: parallel runs ``==`` serial runs, over a toy graph with an
upstream stage that discards documents and over the real churn study
(the real ``EntityLinker``, seeds 1-3, email and SMS).  The copy
count: a stage that stamps a fresh id on every unpickled copy shows at
most ``workers`` copies per fan-out, and a new copy after the parent
changes the stage.  A forced table miss (every piece unpickles its own
copy) still gives ``==`` results.
"""

import math
import pickle
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import pytest

from repro.core.usecases.churn import run_churn_study
from repro.engine import Document, MapStage, PipelineRunner
from repro.engine import runner as runner_module
from repro.exec import ProcessBackend

from tests.linking.test_similarity_kernels import churn_corpus

WORKER_COUNTS = (2, 3)
BATCH_SIZE = 2


class DropOdd(MapStage):
    """Discards odd doc ids, so the next stage sees half the corpus."""

    name = "drop-odd"
    pure = False

    def process_document(self, document):
        """Discard odd doc ids."""
        if document.doc_id % 2:
            document.discard(self.stage_name, "odd")


class MemoSquare(MapStage):
    """A pure stage with a memo, like the linker's ranked lists.

    Each value is computed once per copy and then read from the memo,
    so a copy shared by many pieces does less work for the same output.
    """

    name = "memo-square"

    def __init__(self):
        self.memo = {}

    def process_document(self, document):
        """Write ``(doc_id // 3) ** 2``, memoised per copy."""
        key = document.doc_id // 3
        if key not in self.memo:
            self.memo[key] = key * key
        document.put("square", self.memo[key])


class CopyStamp(MapStage):
    """Stamps each document with the id of the stage copy that ran it.

    A copy made by unpickling gets a fresh id; the parent's own stage
    has none.  ``version`` is the parent-side setting a rerun must see.
    """

    name = "copy-stamp"

    def __init__(self):
        self.version = 0
        self.copy_id = None

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.copy_id = uuid.uuid4().hex

    def process_document(self, document):
        """Write the copy id and the stage's version."""
        document.put("copy", self.copy_id)
        document.put("version", self.version)


class PieceRecorder(ProcessBackend):
    """A process backend that records the piece sizes of each map."""

    def __init__(self, workers):
        super().__init__(workers)
        self.sizes = []

    def map(self, fn, *columns, label=None):
        """Record ``[len(piece) ...]``, then map as usual."""
        self.sizes.append([len(piece) for piece in columns[0]])
        return super().map(fn, *columns, label=label)


def _docs(count):
    return [Document(doc_id=index) for index in range(count)]


def _run(stages, count, backend=None):
    """``count`` fresh documents through ``stages``."""
    return PipelineRunner(
        stages, batch_size=BATCH_SIZE, backend=backend
    ).run(_docs(count))


def _expected_pieces(live, workers):
    """The runner's piece count for ``live`` documents."""
    return min(live, max(math.ceil(live / BATCH_SIZE), 2 * workers))


def _live_counts(workers):
    """0, 1, 2w-1 and w*batch_size+1 documents reach the pure stage."""
    return (0, 1, 2 * workers - 1, workers * BATCH_SIZE + 1)


def _copies(result):
    return set(result.artifact_column("copy"))


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_after_an_upstream_discard(self, workers):
        with ProcessBackend(workers) as backend:
            for live in _live_counts(workers):
                serial = _run([DropOdd(), MemoSquare()], 2 * live)
                parallel = _run(
                    [DropOdd(), MemoSquare()], 2 * live, backend
                )
                assert parallel.documents == serial.documents, live
                assert parallel.discarded == serial.discarded, live
                stats = parallel.report.stage("memo-square")
                assert stats.docs_in == live
                assert stats.parallel == (live > BATCH_SIZE)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_piece_count_and_sizes(self, workers):
        with PieceRecorder(workers) as backend:
            for live in (2 * workers - 1, workers * BATCH_SIZE + 1, 57):
                backend.sizes.clear()
                result = _run(
                    [DropOdd(), MemoSquare()], 2 * live, backend
                )
                (sizes,) = backend.sizes
                count = _expected_pieces(live, workers)
                assert len(sizes) == count
                assert result.report.stage("memo-square").batches == count
                assert sum(sizes) == live
                assert max(sizes) <= BATCH_SIZE
                assert max(sizes) - min(sizes) <= 1
                assert sizes == sorted(sizes, reverse=True)


class TestOneCopyPerWorker:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_at_most_one_copy_per_worker(self, workers):
        with ProcessBackend(workers) as backend:
            result = _run([CopyStamp()], 6 * workers * BATCH_SIZE, backend)
        assert result.report.stage("copy-stamp").batches > workers
        assert None not in _copies(result)
        assert len(_copies(result)) <= workers

    def test_warm_pool_takes_a_new_copy_after_a_change(self):
        stage = CopyStamp()
        with ProcessBackend(2) as backend:
            first = _run([stage], 40, backend)
            stage.version = 1
            second = _run([stage], 40, backend)
        assert set(first.artifact_column("version")) == {0}
        assert set(second.artifact_column("version")) == {1}
        assert len(_copies(second)) <= 2
        assert not _copies(first) & _copies(second)

    def test_spawned_workers_keep_one_copy(self):
        with ProcessBackend(2, mp_context="spawn") as backend:
            result = _run([CopyStamp()], 40, backend)
        assert len(_copies(result)) <= 2
        assert set(result.artifact_column("version")) == {0}

    def test_threads_sharing_a_pool_each_see_their_own_stage(self):
        stages = []
        for version in range(4):
            stage = CopyStamp()
            stage.version = version
            stages.append(stage)
        with ProcessBackend(2) as backend:
            with ThreadPoolExecutor(2) as callers:
                results = list(callers.map(
                    lambda stage: _run([stage], 40, backend), stages
                ))
        for version, result in enumerate(results):
            assert set(result.artifact_column("version")) == {version}
            assert len(_copies(result)) <= 2


class TestTableMiss:
    def test_every_piece_unpickling_its_own_copy_is_equal(self, monkeypatch):
        # Fork start method: workers inherit the emptied table limit, so
        # every piece misses and unpickles the stage afresh.
        monkeypatch.setattr(runner_module, "_WORKER_STAGE_LIMIT", 0)
        serial = _run([DropOdd(), MemoSquare()], 60)
        with ProcessBackend(2, mp_context="fork") as backend:
            parallel = _run([DropOdd(), MemoSquare()], 60, backend)
            stamped = _run([CopyStamp()], 40, backend)
        assert parallel.documents == serial.documents
        assert parallel.discarded == serial.discarded
        assert len(_copies(stamped)) == stamped.report.stage(
            "copy-stamp"
        ).batches

    def test_an_evicted_key_unpickles_the_same_stage(self, monkeypatch):
        # This process plays the worker; its table is put back after.
        monkeypatch.setattr(runner_module, "_worker_stages", {})
        stage = MemoSquare()
        task = pickle.loads(pickle.dumps(runner_module._StageTask(stage)))
        first = task(_docs(6))
        runner_module._worker_stages.pop(task.key)
        again = task(_docs(6))
        assert again == first
        assert first == stage.process(_docs(6))

    def test_keys_are_fresh_per_fan_out(self):
        stage = MemoSquare()
        keys = {runner_module._StageTask(stage).key for _ in range(50)}
        assert len(keys) == 50


def _study_outputs(result):
    """Everything a churn study returns that is not a timing."""
    return (
        result.total_messages, result.linked_messages,
        result.unlinked_fraction, result.train_messages,
        result.train_churner_fraction, result.detection_rate,
        asdict(result.cleaning_stats), asdict(result.message_report),
        result.flagged_customers, result.test_churners,
    )


@pytest.fixture(scope="module")
def telecom():
    """The churn-email benchmark corpus, seeds 1-3."""
    return {seed: churn_corpus(seed) for seed in (1, 2, 3)}


class TestChurnStudy:
    @pytest.mark.parametrize("channel", ["email", "sms"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_workers_equal_serial(self, telecom, seed, channel):
        corpus = telecom[seed]
        serial = _study_outputs(run_churn_study(corpus, channel=channel))
        for workers in WORKER_COUNTS:
            result = run_churn_study(
                corpus, channel=channel, workers=workers
            )
            linked = result.stage_report.stage("entity-link")
            assert linked.parallel
            assert linked.batches == max(
                math.ceil(linked.docs_in / 64), 2 * workers
            )
            assert _study_outputs(result) == serial, (seed, channel, workers)
