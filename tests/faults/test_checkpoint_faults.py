"""Checkpoint resilience: retries, corruption, previous-good fallback."""

import json
import os

import pytest

from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedIOError,
    RetryPolicy,
    injecting,
)
from repro.obs import MetricsRegistry, activated
from repro.stream import CheckpointCorrupt, Checkpointer
from repro.stream.checkpoint import CHECKPOINT_VERSION

STATE = {"offset": 41, "index": {"documents": []}}

NO_SLEEP = lambda _delay: None  # noqa: E731


def retrying_checkpointer(path, max_attempts=6):
    return Checkpointer(
        path,
        retry=RetryPolicy(
            max_attempts=max_attempts, base_delay=0.0, max_delay=0.0,
            seed=1,
        ),
        sleep=NO_SLEEP,
    )


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "ck.json")
        checkpointer.save(STATE)
        loaded = checkpointer.load()
        assert loaded["offset"] == 41
        assert loaded["version"] == CHECKPOINT_VERSION
        assert "sha256" not in loaded  # stamp verified then stripped

    def test_save_rotates_previous_good_copy(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "ck.json")
        checkpointer.save({"offset": 1})
        checkpointer.save({"offset": 2})
        assert os.path.exists(checkpointer.prev_path)
        assert checkpointer.load()["offset"] == 2

    def test_clear_removes_both_copies(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "ck.json")
        checkpointer.save({"offset": 1})
        checkpointer.save({"offset": 2})
        checkpointer.clear()
        assert not os.path.exists(checkpointer.path)
        assert not os.path.exists(checkpointer.prev_path)
        assert checkpointer.load() is None


class TestCorruptionFallback:
    def _corrupt_current(self, checkpointer):
        with open(checkpointer.path, "r+b") as handle:
            data = bytearray(handle.read())
            data[len(data) // 2] ^= 0xFF
            handle.seek(0)
            handle.write(bytes(data))

    def test_corrupted_current_falls_back_to_previous(self, tmp_path):
        metrics = MetricsRegistry()
        checkpointer = Checkpointer(tmp_path / "ck.json")
        checkpointer.save({"offset": 1})
        checkpointer.save({"offset": 2})
        self._corrupt_current(checkpointer)
        with activated(None, metrics):
            loaded = checkpointer.load()
        assert loaded["offset"] == 1  # the previous good copy
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["checkpoint.corrupt"] == 1
        assert snapshot["counters"]["checkpoint.fallback"] == 1

    def test_corrupt_with_no_previous_raises(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "ck.json")
        checkpointer.save({"offset": 1})
        self._corrupt_current(checkpointer)
        with pytest.raises(CheckpointCorrupt, match="no previous"):
            checkpointer.load()

    def test_both_copies_corrupt_raises(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "ck.json")
        checkpointer.save({"offset": 1})
        checkpointer.save({"offset": 2})
        self._corrupt_current(checkpointer)
        with open(checkpointer.prev_path, "w", encoding="utf-8") as fh:
            fh.write("{ torn")
        with pytest.raises(CheckpointCorrupt):
            checkpointer.load()

    def test_missing_current_with_rotated_copy_recovers(self, tmp_path):
        # A crash between save()'s two renames leaves only .prev.
        checkpointer = Checkpointer(tmp_path / "ck.json")
        checkpointer.save({"offset": 1})
        os.replace(checkpointer.path, checkpointer.prev_path)
        assert checkpointer.load()["offset"] == 1

    def test_injected_byte_corruption_detected(self, tmp_path):
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec(point="checkpoint.bytes", kind="corrupt",
                          times=1),
            ),
        )
        checkpointer = Checkpointer(tmp_path / "ck.json")
        with injecting(plan.injector()):
            checkpointer.save({"offset": 7})   # corrupted on disk
            checkpointer.save({"offset": 8})   # clean (times=1 spent)
        # Current (offset 8) is clean; the corrupted copy rotated to
        # .prev where a *current*-copy failure would have found it.
        assert checkpointer.load()["offset"] == 8

    def test_damaged_stamp_key_falls_back(self, tmp_path):
        # Regression: a payload whose stamp key itself was damaged used
        # to load unverified, tampered offset included.
        checkpointer = Checkpointer(tmp_path / "ck.json")
        checkpointer.save({"offset": 7})
        checkpointer.save({"offset": 8})
        with open(checkpointer.path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["sha2X6"] = payload.pop("sha256")
        payload["offset"] = 9
        with open(checkpointer.path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert checkpointer.load() == {"offset": 7, "version": 3}


class TestRetries:
    def _plan(self, point, times):
        return FaultPlan(
            seed=3,
            specs=(FaultSpec(point=point, kind="io", times=times),),
        )

    def test_save_retries_through_io_faults(self, tmp_path):
        checkpointer = retrying_checkpointer(tmp_path / "ck.json")
        with injecting(self._plan("checkpoint.save", 3).injector()):
            checkpointer.save(STATE)
        assert checkpointer.load()["offset"] == 41

    def test_load_retries_through_io_faults(self, tmp_path):
        checkpointer = retrying_checkpointer(tmp_path / "ck.json")
        checkpointer.save(STATE)
        with injecting(self._plan("checkpoint.load", 3).injector()):
            assert checkpointer.load()["offset"] == 41

    def test_unretried_save_propagates_injected_fault(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "ck.json")  # no policy
        with injecting(self._plan("checkpoint.save", 1).injector()):
            with pytest.raises(InjectedIOError):
                checkpointer.save(STATE)

    def test_retry_exhaustion_propagates(self, tmp_path):
        checkpointer = retrying_checkpointer(
            tmp_path / "ck.json", max_attempts=2
        )
        with injecting(self._plan("checkpoint.save", 5).injector()):
            with pytest.raises(InjectedIOError):
                checkpointer.save(STATE)
