"""Stream chaos: crash/retry/resume under a seeded fault plan.

The correctness bar of the resilience layer, asserted end to end:
under *any* seeded fault schedule — injected checkpoint I/O errors,
byte corruption with previous-good fallback, fatal crashes at commit
boundaries, replay-log read failures — a crash/retry/resume run must
finish with results bit-identical (``==``) to an uninterrupted run.

The CI chaos job executes this module once per seed in its matrix
(``BIVOC_CHAOS_SEED``); the plan's ``times`` caps guarantee the retry
loops converge, so these are certainties, not probabilities.
"""

import os

import pytest

from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedIOError,
    RetryPolicy,
    default_chaos_plan,
    injecting,
)
from repro.stream import (
    CheckpointCorrupt,
    Checkpointer,
    ReplayLogSource,
    write_replay_log,
)
from repro.stream.checkpoint import index_to_state

from tests.faults.chaosenv import chaos_seed
from tests.serve.corpus import make_consumer, make_pairs

NO_SLEEP = lambda _delay: None  # noqa: E731

MAX_RESTARTS = 60  # far above any times-capped plan's crash budget


def run_reference(pairs):
    """The uninterrupted run: no faults, no checkpoints."""
    consumer = make_consumer(pairs)
    consumer.run()
    return consumer


def run_chaos(pairs, plan, checkpoint_path, seed):
    """Crash/retry/resume the same stream under ``plan``.

    Each injected crash kills the consumer outright; the next
    incarnation is built from scratch (a real crash loses all
    in-memory state) and resumes from whatever checkpoint survived.
    Returns ``(consumer, restarts)``.
    """
    retry = RetryPolicy(
        max_attempts=8, base_delay=0.0, max_delay=0.0, seed=seed
    )
    restarts = 0
    with injecting(plan.injector(sleep=NO_SLEEP)):
        while True:
            consumer = make_consumer(pairs)
            consumer.checkpointer = Checkpointer(
                checkpoint_path, retry=retry, sleep=NO_SLEEP
            )
            try:
                consumer.restore()
            except CheckpointCorrupt:
                # Every copy corrupted: cold start is the last
                # resort, and at-least-once delivery makes it safe.
                consumer.checkpointer.clear()
                continue
            try:
                consumer.run()
                return consumer, restarts
            except InjectedFault:
                restarts += 1
                assert restarts <= MAX_RESTARTS, (
                    f"runaway restart loop under plan "
                    f"{plan.to_json_dict()}"
                )


@pytest.mark.parametrize("redeliver", [1, 4])
def test_chaos_run_bit_identical_to_uninterrupted(redeliver, tmp_path):
    seed = chaos_seed()
    pairs = make_pairs(seed=seed, redeliver=redeliver)
    plan = default_chaos_plan(seed)
    reference = run_reference(pairs)
    chaotic, restarts = run_chaos(
        pairs, plan, os.fspath(tmp_path / "ck.json"), seed
    )
    assert index_to_state(chaotic.index) == index_to_state(
        reference.index
    ), f"diverged after {restarts} crashes; plan {plan.to_json_dict()}"
    assert chaotic.committed_offset == reference.committed_offset


def test_chaos_faults_actually_fire():
    """The suite must not pass vacuously: the plan injects something.

    Uses a fresh injector over the same schedule the bit-identity test
    armed; with every ``probability < 1`` spec drawn 40 times, at
    least one spec fires for any seed.
    """
    plan = default_chaos_plan(chaos_seed())
    injector = plan.injector(sleep=NO_SLEEP)
    for spec in plan.specs:
        for _ in range(40):
            try:
                if spec.kind == "corrupt":
                    injector.corrupt(spec.point, b"payload-bytes")
                else:
                    injector.fault_point(spec.point)
            except InjectedFault:
                pass
    fired = sum(c["fired"] for c in injector.counts().values())
    assert fired > 0


@pytest.mark.parametrize("redeliver", [1, 4])
def test_single_targeted_crash_then_resume(redeliver, tmp_path):
    """One fatal fault at the second commit, no probability draws."""
    pairs = make_pairs(seed=chaos_seed(), redeliver=redeliver)
    plan = FaultPlan(
        seed=chaos_seed(),
        specs=(
            FaultSpec(point="stream.batch-committed", kind="fatal",
                      times=1, after=1),
        ),
    )
    reference = run_reference(pairs)
    chaotic, restarts = run_chaos(
        pairs, plan, os.fspath(tmp_path / "ck.json"),
        chaos_seed(),
    )
    assert restarts == 1
    assert index_to_state(chaotic.index) == index_to_state(
        reference.index
    )


class TestReplayLogFaults:
    def _write_log(self, tmp_path):
        pairs = make_pairs(n=12, seed=chaos_seed())
        path = os.fspath(tmp_path / "replay.jsonl")
        write_replay_log(
            path, ((ts, doc) for ts, doc in pairs)
        )
        return path, pairs

    def test_replay_read_retried_through_io_faults(self, tmp_path):
        path, pairs = self._write_log(tmp_path)
        plan = FaultPlan(
            seed=chaos_seed(),
            specs=(FaultSpec(point="replay.read", kind="io", times=2),),
        )
        retry = RetryPolicy(
            max_attempts=4, base_delay=0.0, max_delay=0.0,
            seed=chaos_seed(),
        )
        with injecting(plan.injector(sleep=NO_SLEEP)):
            source = ReplayLogSource(path, retry=retry, sleep=NO_SLEEP)
        assert len(source) == len(pairs)
        clean = ReplayLogSource(path)
        assert [r.document.doc_id for r in source.poll(100)] == [
            r.document.doc_id for r in clean.poll(100)
        ]

    def test_unretried_replay_read_propagates(self, tmp_path):
        path, _ = self._write_log(tmp_path)
        plan = FaultPlan(
            seed=chaos_seed(),
            specs=(FaultSpec(point="replay.read", kind="io", times=1),),
        )
        with injecting(plan.injector(sleep=NO_SLEEP)):
            with pytest.raises(InjectedIOError):
                ReplayLogSource(path)
