"""The pipeline runner: batched stage execution with instrumentation.

:class:`PipelineRunner` executes a declared stage list over a corpus of
:class:`~repro.engine.document.Document` objects:

* the corpus is chunked into fixed-size batches, and each stage
  processes every live batch before the next stage starts (a stage
  barrier — downstream stages may rely on upstream artifacts existing
  for the whole corpus);
* per stage, the runner counts documents in / out / discarded and the
  stage's wall time, collected into a :class:`PipelineReport`;
* a *pure* stage (see :class:`~repro.engine.stage.Stage.pure`) with
  more than one batch is cut into balanced pieces and mapped across an
  execution backend (see :mod:`repro.exec`) with an order-preserving
  map; impure stages always run serially.  Because pure stages process
  documents independently and deterministically, parallel execution is
  bit-identical to serial execution on every backend — the determinism
  guarantee every paper artifact relies on.

The backend is injected (``backend=None`` runs inline) and warm-reused
across runs — worker spawn is paid once per backend, not once per run.
The runner never builds or closes a backend: whoever built it (see
:func:`repro.exec.make_backend`) closes it.

A parallel stage ships to the worker processes inside one
module-level :class:`_StageTask` per fan-out: the stage is pickled
once, and each worker unpickles it once and runs all its pieces on
that copy.  Per-piece child spans are skipped there (the parent
tracer is unreachable from a worker process), which cannot change
results because observability is write-only.

Wall-time measurement is instrumentation only: it is reported, never
fed back into document flow, and the clock is injectable so tests (and
the ``no-wallclock-in-algo`` determinism argument) can substitute a
fake.

The runner is also the engine's observability anchor (see
:mod:`repro.obs`): every run opens a ``pipeline:run`` span, every
stage a ``stage:<name>`` span, and every inline batch a ``batch``
span nested in its stage, while a metrics registry accumulates
document counters and per-stage wall-time histograms.  Both are the
ambient collectors, resolved at each run, which are no-ops unless a
trace is active (so ``bivoc trace`` reaches a runner built long before
tracing was activated) —
tracing never alters document flow, so traced and untraced runs are
bit-identical in outputs.
"""

import itertools
import os
import pickle
import time
from dataclasses import dataclass, field

from repro.obs import get_metrics, get_tracer


#: Stage copies one worker process keeps, oldest dropped first.
_WORKER_STAGE_LIMIT = 4

#: The worker side of :class:`_StageTask`: fan-out key -> unpickled stage.
_worker_stages = {}

#: Numbers the fan-outs of this process (with its pid, the task key).
_fan_outs = itertools.count()


class _StageTask:
    """Picklable envelope running one stage over one piece of a fan-out.

    One task is built per fan-out, at module level (spawn-safe).  It
    pickles its stage once, the first time it is pickled itself (the
    backend's preflight), and from then on travels as a key fresh to
    this fan-out, ``(pid, counter)``, plus those bytes.  A worker
    unpickles the stage the first time it meets the key and keeps the
    copy in a small module-level table, so every piece that worker
    runs in the fan-out shares one stage and the memos it fills (a
    linker's ranked lists and word pairs).  The bytes ride with every
    piece, so a worker that does not hold the key (a fresh or spawned
    interpreter, or an evicted entry) unpickles them once more; a pure
    stage's output never depends on what its copy ran before, so that
    costs time only, never a result.
    """

    def __init__(self, stage):
        """``stage`` is the Stage instance to apply per piece."""
        self.stage = stage
        self.key = (os.getpid(), next(_fan_outs))
        self._payload = None

    def __getstate__(self):
        """The key and the stage's bytes, pickled on first use."""
        if self._payload is None:
            self._payload = pickle.dumps(self.stage)
        return {"key": self.key, "payload": self._payload}

    def __setstate__(self, state):
        """A shipped task: the stage is looked up when first called."""
        self.key = state["key"]
        self._payload = state["payload"]
        self.stage = None

    def __call__(self, batch):
        """One piece through the stage (same output contract)."""
        stage = self.stage
        if stage is None:
            stage = _worker_stages.get(self.key)
            if stage is None:
                stage = pickle.loads(self._payload)
                _worker_stages[self.key] = stage
                while len(_worker_stages) > _WORKER_STAGE_LIMIT:
                    del _worker_stages[next(iter(_worker_stages))]
        return stage.process(batch)


@dataclass
class StageStats:
    """Counters for one stage of one run."""

    name: str
    docs_in: int = 0
    docs_out: int = 0
    discarded: int = 0
    batches: int = 0
    wall_time: float = 0.0
    parallel: bool = False

    def to_json_dict(self):
        """Plain-dict form for machine-readable reports."""
        return {
            "stage": self.name,
            "docs_in": self.docs_in,
            "docs_out": self.docs_out,
            "discarded": self.discarded,
            "batches": self.batches,
            "wall_time_s": self.wall_time,
            "parallel": self.parallel,
        }


@dataclass
class PipelineReport:
    """Per-stage statistics for one :meth:`PipelineRunner.run`."""

    stages: list = field(default_factory=list)  # StageStats, in order
    total_in: int = 0
    total_out: int = 0
    wall_time: float = 0.0
    metrics: object = None  # metrics snapshot dict when observed

    def stage(self, name):
        """Stats for one stage by report name."""
        for stats in self.stages:
            if stats.name == name:
                return stats
        raise KeyError(f"no stage named {name!r} in this report")

    def to_json_dict(self):
        """Plain-dict form (suitable for ``json.dump``)."""
        out = {
            "total_in": self.total_in,
            "total_out": self.total_out,
            "wall_time_s": self.wall_time,
            "stages": [stats.to_json_dict() for stats in self.stages],
        }
        if self.metrics:
            out["metrics"] = self.metrics
        return out

    def render_text(self):
        """Human-readable per-stage funnel table."""
        from repro.util.tabletext import format_table

        rows = [
            [
                stats.name,
                str(stats.docs_in),
                str(stats.docs_out),
                str(stats.discarded),
                f"{stats.wall_time:.3f}s",
                "par" if stats.parallel else "ser",
            ]
            for stats in self.stages
        ]
        rows.append(
            [
                "total",
                str(self.total_in),
                str(self.total_out),
                str(self.total_in - self.total_out),
                f"{self.wall_time:.3f}s",
                "",
            ]
        )
        return format_table(
            ["stage", "in", "out", "drop", "wall", "mode"],
            rows,
            title="pipeline stages",
        )


@dataclass
class PipelineResult:
    """Outcome of one run: surviving documents, discards, report."""

    documents: list  # live documents, original corpus order
    discarded: list  # discarded documents, original corpus order
    report: PipelineReport

    def artifact_column(self, name, default=None):
        """One artifact across all surviving documents, in order."""
        return [doc.get(name, default) for doc in self.documents]


def _batched(items, size):
    """Chunk ``items`` into lists of at most ``size``."""
    return [items[start:start + size] for start in range(0, len(items), size)]


def _pieces(items, count):
    """Cut ``items`` into ``count`` contiguous lists whose lengths
    differ by at most one (the longer ones first)."""
    size, longer = divmod(len(items), count)
    bounds = [index * size + min(index, longer) for index in range(count + 1)]
    return [items[start:end] for start, end in zip(bounds, bounds[1:])]


class PipelineRunner:
    """Executes a stage list over a document corpus.

    ``batch_size`` bounds the unit of work handed to each stage (and to
    each worker); ``backend`` is the
    :class:`~repro.exec.ExecBackend` pure stages fan out on (``None``
    runs every stage inline).  A pure stage with more than one batch
    fans out as ``max(ceil(n / batch_size), 2 * workers)`` equal
    contiguous pieces of its ``n`` live documents (at most ``n``), so
    every worker gets at least two and none more than ``batch_size``
    documents; :attr:`StageStats.batches` counts the pieces.
    ``clock`` is the timing source for per-stage wall time (defaults
    to the monotonic performance counter); it is used for reporting
    only and never influences the documents.
    """

    def __init__(self, stages, batch_size=64, clock=None, backend=None):
        """``stages`` is an ordered list of Stage instances.

        ``backend`` is used by every :meth:`run` and left open: one
        backend can serve many runs, and whoever built it closes it.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        names = [stage.stage_name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(
                f"stage names must be unique, got {names}"
            )
        self.stages = list(stages)
        self.batch_size = batch_size
        # Instrumentation-only clock (injectable; see module docstring).
        self._clock = clock if clock is not None else time.perf_counter
        self._backend = backend

    def __enter__(self):
        """Context manager: the runner itself (it owns nothing)."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        """Context-manager exit: nothing to release."""
        return False

    def run(self, documents):
        """Run every stage over ``documents``; returns a result with
        surviving documents in corpus order plus the stage report.

        The injected backend serves every parallel stage of every run;
        parallel output stays bit-identical to serial on all backends
        (order-preserving map, pure stages only).
        """
        tracer = get_tracer()
        metrics = get_metrics()
        live = list(documents)
        all_discarded = []
        report = PipelineReport(total_in=len(live))
        run_started = self._clock()
        with tracer.span(
            "pipeline:run",
            category="engine",
            tags={"docs_in": len(live), "stages": len(self.stages)},
        ) as run_span:
            for stage in self.stages:
                live, stats = self._run_stage(stage, live, tracer)
                report.stages.append(stats)
                discarded_here = [doc for doc in live if doc.discarded]
                if discarded_here:
                    all_discarded.extend(discarded_here)
                    live = [doc for doc in live if not doc.discarded]
                stats.docs_out = len(live)
                stats.discarded = len(discarded_here)
                metrics.histogram("engine.stage_wall_s").observe(
                    stats.wall_time
                )
            run_span.tag("docs_out", len(live))
        report.total_out = len(live)
        report.wall_time = self._clock() - run_started
        metrics.counter("engine.runs").inc()
        metrics.counter("engine.docs_in").inc(report.total_in)
        metrics.counter("engine.docs_out").inc(report.total_out)
        metrics.counter("engine.docs_discarded").inc(len(all_discarded))
        report.metrics = metrics.snapshot() or None
        return PipelineResult(
            documents=live, discarded=all_discarded, report=report
        )

    def _run_stage(self, stage, live, tracer):
        """Run one stage over all live documents, batched.

        Pure stages with more than one batch map across the injected
        backend, when there is one that can fan out, in balanced
        pieces (see the class docstring).
        """
        backend = self._backend
        batches = _batched(live, self.batch_size)
        use_parallel = (
            backend is not None
            and backend.can_fan_out()
            and stage.pure
            and len(batches) > 1
        )
        if use_parallel:
            # Two pieces per worker, so no worker waits on a lone long
            # batch; never fewer than the batches, so none exceeds
            # ``batch_size``.
            batches = _pieces(live, min(
                len(live),
                max(len(batches), 2 * backend.effective_workers()),
            ))
        stats = StageStats(
            name=stage.stage_name,
            docs_in=len(live),
            batches=len(batches),
            parallel=use_parallel,
        )
        tags = {
            "docs_in": len(live),
            "batches": len(batches),
            "parallel": use_parallel,
        }
        if use_parallel:
            tags["backend"] = backend.kind
        with tracer.span(
            f"stage:{stage.stage_name}",
            category="engine",
            tags=tags,
        ):
            started = self._clock()
            if use_parallel:
                # Across the process boundary each piece travels inside
                # the fan-out's envelope; per-piece child spans are
                # skipped (the parent tracer is unreachable from a
                # worker), and because observability is write-only,
                # skipping them cannot change any document.  Order
                # preservation keeps output identical to serial.
                out_batches = backend.map(
                    _StageTask(stage),
                    batches,
                    label=f"stage:{stage.stage_name}",
                )
            else:
                out_batches = []
                for index, batch in enumerate(batches):
                    with tracer.span(
                        "batch",
                        category="engine",
                        tags={"batch": index, "docs": len(batch)},
                    ):
                        out_batches.append(stage.process(batch))
            stats.wall_time = self._clock() - started
        out = []
        for batch_in, batch_out in zip(batches, out_batches):
            if batch_out is None or len(batch_out) != len(batch_in):
                raise ValueError(
                    f"stage {stage.stage_name!r} must return its batch "
                    f"(same length); discards are flagged, not dropped"
                )
            out.extend(batch_out)
        for document in out:
            document.provenance = document.provenance + (
                stage.stage_name,
            )
        return out, stats
