"""Incremental ingestion: streams, windows, checkpoints.

The paper's BIVoC is an operational system — calls, emails and SMS
arrive continuously, and trend insight comes from "the increase and
decrease of occurrences of each concept in a certain period" (paper
Section IV-D).  This subsystem turns the one-shot stage graphs of
:mod:`repro.engine` into that always-on shape:

* :mod:`~repro.stream.source` — offset-addressed, replayable document
  streams (in-memory and JSONL replay-log sources);
* :mod:`~repro.stream.consumer` — a micro-batching
  :class:`StreamConsumer` with bounded-queue backpressure and
  at-least-once, idempotent delivery;
* :mod:`~repro.stream.window` — :class:`WindowedAnalytics`, sliding-
  window relative-frequency / association / trend snapshots: the
  batch mining functions run on the last buckets of the consumer's
  one index, read as a frozen bucket-range view;
* :mod:`~repro.stream.checkpoint` — atomic, checksummed JSON
  checkpoints of offset + index + window cursor (with fallback to the
  previous good copy on corruption) so a killed consumer resumes
  without reprocessing or double-counting;
* :mod:`~repro.stream.epoch` — :class:`EpochStore`, the snapshot
  publication protocol: immutable, offset-stamped views of the live
  index published at every commit boundary, the read side the
  :mod:`repro.serve` query layer answers from.
"""

from repro.stream.checkpoint import (
    CheckpointCorrupt,
    Checkpointer,
    index_from_state,
    index_to_state,
)
from repro.stream.epoch import EpochSnapshot, EpochStore
from repro.stream.consumer import StreamConsumer, StreamReport
from repro.stream.source import (
    MemorySource,
    ReplayLogSource,
    StreamRecord,
    StreamSource,
    write_replay_log,
)
from repro.stream.window import AssocSpec, RelFreqSpec, WindowedAnalytics

__all__ = [
    "StreamSource",
    "StreamRecord",
    "MemorySource",
    "ReplayLogSource",
    "write_replay_log",
    "StreamConsumer",
    "StreamReport",
    "WindowedAnalytics",
    "AssocSpec",
    "RelFreqSpec",
    "Checkpointer",
    "CheckpointCorrupt",
    "index_to_state",
    "index_from_state",
    "EpochStore",
    "EpochSnapshot",
]
