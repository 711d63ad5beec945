"""What the benchmark measures: workloads and metrics.

This module is the single source of the names in ``BENCHMARK.json``;
``python3 perfbench/run.py --spec`` prints that file from it, and the
benchmark's own tests assert the committed file matches.
"""

RUN_SECONDS = 20

#: (name, why) — one closed-loop client each.
WORKLOADS = (
    ("callcenter",
     "run_insight_analysis on car-rental calls: the pattern pass is most "
     "of the time and linking is small"),
    ("churn-email",
     "run_churn_study on telecom email, serial: entity linking is most of "
     "the time; the control for annotation and spelling changes"),
    ("churn-email-process",
     "the churn-email call on 2 worker processes: exec pickling and "
     "fan-out, with churn-email as its serial control"),
    ("telecom-stream",
     "the bivoc stream telecom graph with checkpoints and a reader after "
     "each commit: spelling drives commits, serve and windows drive reads"),
)

#: (name, unit, better, bound) — reported by the untraced run.  Times
#: are corrected for machine speed (see ``calibrate.py``).  Over ten
#: seeds on a 2-vCPU VM the widest quartile spreads of any workload
#: were 0.10 (docs_per_s), 0.10 (commit p50), 0.14 (commit p90) and
#: 0.003 (memory); the time bounds sit at the 0.25 cap.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("docs_per_s", "1/s", "higher", 0.25),
    ("commit_ms.p50", "ms", "lower", 0.25),
    ("commit_ms.p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Engine stages of the two use-case graphs, in flow order.
STAGES = (
    "turn-split", "compose", "record-link", "annotate", "derive", "index",
    "clean", "entity-link", "label", "featurize",
)

#: Layers whose self time the traced run reports; ``other`` is the
#: part of an operation no span or wrapper covers.
LAYERS = (
    "annotation", "linking", "store", "cleaning", "engine", "exec",
    "mining", "stream", "serve", "other",
)

#: (name, unit, better) — reported by the traced run.  Counts are
#: those of the first operation unit (exactly repeatable at one seed);
#: times are seconds per unit averaged over the run.
PER_LAYER = (
    ("annotation.annotate.calls", "count", "lower"),
    ("annotation.annotate.s", "s", "lower"),
    ("annotation.tokens", "count", "lower"),
    ("annotation.tokenize.s", "s", "lower"),
    ("annotation.pos.s", "s", "lower"),
    ("annotation.dictionary.s", "s", "lower"),
    ("annotation.patterns.s", "s", "lower"),
    ("annotation.patterns.calls", "count", "lower"),
    ("annotation.patterns.windows", "count", "lower"),
    ("annotation.patterns.hit_share", "ratio", "higher"),
    ("linking.link.calls", "count", "lower"),
    ("linking.link.s", "s", "lower"),
    ("linking.linked_share", "ratio", "higher"),
    ("linking.ranked_lists.s", "s", "lower"),
    ("linking.annotators.s", "s", "lower"),
    ("linking.typed_tokens", "count", "lower"),
    ("linking.similarity.calls", "count", "lower"),
    ("linking.similarity.s", "s", "lower"),
    ("linking.similarity.nonzero_share", "ratio", "higher"),
    ("linking.similarity.calls.name", "count", "lower"),
    ("linking.similarity.calls.phone", "count", "lower"),
    ("linking.similarity.calls.date", "count", "lower"),
    ("linking.merge.s", "s", "lower"),
    ("linking.merge.sequential_accesses", "count", "lower"),
    ("linking.merge.random_accesses", "count", "lower"),
    ("linking.merge.read_share", "ratio", "lower"),
    ("linking.call_record.s", "s", "lower"),
    ("linking.call_record.hit_share", "ratio", "higher"),
    ("store.candidates.calls", "count", "lower"),
    ("store.candidates.s", "s", "lower"),
    ("store.candidates.returned", "count", "lower"),
    ("store.build_indexes.s", "s", "lower"),
    ("cleaning.clean.calls", "count", "lower"),
    ("cleaning.clean.s", "s", "lower"),
    ("cleaning.kept_share", "ratio", "higher"),
    ("cleaning.spelling.s", "s", "lower"),
    ("cleaning.spelling.words", "count", "lower"),
    ("cleaning.spelling.changed_share", "ratio", "higher"),
    *((f"engine.stage.{stage}.s", "s", "lower") for stage in STAGES),
    ("engine.pipeline.s", "s", "lower"),
    ("exec.map.calls", "count", "lower"),
    ("exec.map.s", "s", "lower"),
    ("exec.tasks", "count", "lower"),
    ("exec.chunks", "count", "lower"),
    ("exec.pickled_bytes", "bytes", "lower"),
    ("exec.pickled_bytes_per_doc", "bytes", "lower"),
    ("mining.compute.calls", "count", "lower"),
    ("mining.compute.s", "s", "lower"),
    ("mining.partials", "count", "lower"),
    ("mining.index.add.s", "s", "lower"),
    ("stream.step.s", "s", "lower"),
    ("stream.window.ingest.calls", "count", "lower"),
    ("stream.window.ingest.s", "s", "lower"),
    ("stream.window.read.s", "s", "lower"),
    ("stream.window.read_ms.p50", "ms", "lower"),
    ("stream.window.read_ms.p90", "ms", "lower"),
    ("stream.epoch.publish.calls", "count", "lower"),
    ("stream.epoch.publish.s", "s", "lower"),
    ("stream.checkpoint.count", "count", "lower"),
    ("stream.checkpoint.s", "s", "lower"),
    ("stream.checkpoint.bytes", "bytes", "lower"),
    ("serve.query.calls", "count", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.plan.s", "s", "lower"),
    ("serve.query_ms.p50", "ms", "lower"),
    ("serve.query_ms.p90", "ms", "lower"),
    ("serve.query.miss_ms.p50", "ms", "lower"),
    ("serve.query.hit_ms.p50", "ms", "lower"),
    *((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead_share", "ratio", "lower"),
)


def benchmark_json():
    """The ``BENCHMARK.json`` document as a plain dict."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
