"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload callcenter --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with observability off.
``--trace 1`` is the separate traced run: it activates the program's
tracer and metrics registry, wraps the uninstrumented layers (see
``layers.py``), prints the layer table, writes a Chrome trace of the
first unit to ``.bench_out/trace-<workload>.json`` and reports the
per-layer metrics.  ``--spec`` prints ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

from calibrate import timed
from spec import END_TO_END, LAYERS, PER_LAYER, RUN_SECONDS, benchmark_json

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 15


def _import_program():
    """Put the checkout's ``src`` on the path; False if it is absent."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        return False
    sys.path.insert(0, source)
    return True


def percentile(values, share):
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb():
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def load_pinned():
    """Pinned output digests: ``{workload: {seed: digest}}``."""
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def run_units(workload, corpus, recorder, seconds, cut, after=None):
    """Whole units until ``seconds`` pass (at least one).

    With ``cut`` a stream unit stops at the deadline; otherwise the
    unit in flight finishes.  ``after`` is called with the unit count
    after each unit.  A unit that raises ends the loop and counts as
    one failed operation.
    """
    units = []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        try:
            unit, _, corrected = timed(
                workload.unit, corpus, recorder, deadline if cut else None
            )
        except Exception:  # the program failed; report, do not measure
            traceback.print_exc()
            recorder.check(False, f"{workload.name}: a unit raised")
            break
        unit.corrected_s = corrected
        if units:
            unit.outputs = None  # only the first unit's are read
        units.append(unit)
        if after is not None:
            after(len(units))
    return units


def check_outputs(workload, corpus, seed, units, reference, recorder,
                  oracle=True):
    """Units agree with ``reference``, pinned digests and the oracle."""
    finished = [unit for unit in units if unit.digest is not None]
    if not finished:
        return
    recorder.check(
        all(unit.digest == reference.digest for unit in finished),
        "outputs differ from the reference unit",
    )
    pinned = load_pinned().get(workload.pinned_as, {}).get(str(seed))
    if pinned is not None:
        recorder.check(
            reference.digest == pinned, "outputs differ from pinned digest"
        )
    if oracle:
        workload.oracle(corpus, reference, recorder)


def untraced(workload, corpus, seed, seconds):
    """End-to-end metrics, observability off, corrected for speed."""
    from workloads import Recorder

    setups = [timed(workload.setup, corpus)[2] for _ in range(SETUP_REPEATS)]
    recorder = Recorder(corrected=True)
    units = run_units(workload, corpus, recorder, seconds, cut=True)
    peak = peak_rss_mb()
    if units:
        check_outputs(workload, corpus, seed, units, units[0], recorder)
    metrics = {
        "setup_s": statistics.median(setups),
        "docs_per_s": recorder.docs / recorder.busy_s
        if recorder.busy_s else 0.0,
        "commit_ms.p50": percentile(recorder.commit_ms, 0.5),
        "commit_ms.p90": percentile(recorder.commit_ms, 0.9),
        "peak_rss_mb": peak,
    }
    print(
        f"{workload.name} seed {seed}: {len(units)} units, "
        f"{len(recorder.commit_ms)} commits, {recorder.docs} docs, "
        f"{SETUP_REPEATS} set-ups"
    )
    if units and units[0].digest is not None:
        print(f"digest {units[0].digest}")
    return recorder, metrics


def traced(workload, corpus, seed, seconds):
    """Per-layer metrics from a traced run, checked against untraced.

    Untraced units run first, for a third of ``seconds``: the first
    one's outputs are the reference every traced unit must reproduce,
    and their throughput is the base of the tracing overhead.
    """
    from layers import LayerTracer, Meter, delta, instrumented, layer_metrics
    from repro.obs import MetricsRegistry, activated, write_chrome_trace
    from workloads import OUT_DIR, Recorder

    baseline = Recorder()
    references = run_units(workload, corpus, baseline, seconds / 3, False)
    if not references:
        return baseline, {name: 0.0 for name, *_ in PER_LAYER}
    reference = references[0]
    meter = Meter()
    tracer = LayerTracer(meter)
    registry = MetricsRegistry()
    recorder = Recorder()
    trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
    first = {}

    def counters():
        return registry.snapshot().get("counters", {})

    def after(count):
        if count == 1:
            first["meter"] = delta(meter.snapshot(), start)
            now = counters()
            first["program"] = {
                name: value - counters_start.get(name, 0)
                for name, value in now.items()
            }
            os.makedirs(OUT_DIR, exist_ok=True)
            write_chrome_trace(tracer.finished(), trace_path)
        tracer.clear()

    with activated(tracer, registry), instrumented(tracer):
        before_setup = meter.snapshot()
        for _ in range(SETUP_REPEATS):
            workload.setup(corpus)
        start = meter.snapshot()
        counters_start = counters()
        tracer.clear()
        units = run_units(
            workload, corpus, recorder, seconds, cut=False, after=after
        )
        end = meter.snapshot()
    check_outputs(
        workload, corpus, seed, units, reference, recorder, oracle=False
    )
    recorder.attempted += baseline.attempted
    recorder.failed += baseline.failed
    recorder.problems += baseline.problems
    if not first:
        return recorder, {name: 0.0 for name, *_ in PER_LAYER}
    count = len(units)
    untraced_rate = sum(u.docs for u in references) / sum(
        u.corrected_s for u in references
    )
    traced_rate = sum(u.docs for u in units) / sum(
        u.corrected_s for u in units
    )
    setup_seconds = delta(start, before_setup)["seconds"]
    extra = {
        "program_counters": first["program"],
        "build_indexes_s":
            setup_seconds.get("store.build_indexes", 0.0) / SETUP_REPEATS,
        "unit_docs": units[0].docs,
        "unit_s": sum(unit.seconds for unit in units) / count,
        "step_s": recorder.busy_s / count if workload.streams else 0.0,
        "queries": len(recorder.query_ms) // count,
        "overhead_share": 1.0 - traced_rate / untraced_rate,
        "latencies": {
            "serve.query_ms.p50": percentile(recorder.query_ms, 0.5),
            "serve.query_ms.p90": percentile(recorder.query_ms, 0.9),
            "serve.query.miss_ms.p50": percentile(recorder.miss_ms, 0.5),
            "serve.query.hit_ms.p50": percentile(recorder.hit_ms, 0.5),
            "stream.window.read_ms.p50": percentile(recorder.read_ms, 0.5),
            "stream.window.read_ms.p90": percentile(recorder.read_ms, 0.9),
        },
    }
    metrics = layer_metrics(
        first["meter"], delta(end, start), count, extra
    )
    unit_s = extra["unit_s"]
    print(
        f"{workload.name} seed {seed}: {count} traced units of "
        f"{unit_s:.3f}s, trace in {trace_path}"
    )
    print(f"  {'layer':<12} {'self s/unit':>12} {'share':>7}")
    for layer in LAYERS:
        value = metrics[f"layer.{layer}.self_s"]
        print(f"  {layer:<12} {value:>12.6f} {value / unit_s:>7.1%}")
    for label, part, whole in ATTRIBUTION:
        if metrics[whole]:
            print(f"  {label}: {metrics[part] / metrics[whole]:.1%}")
    return recorder, metrics


#: (label, part, whole) shares the traced run prints when ``whole`` ran.
ATTRIBUTION = (
    ("annotate stage / pipeline", "engine.stage.annotate.s",
     "engine.pipeline.s"),
    ("entity-link stage / pipeline", "engine.stage.entity-link.s",
     "engine.pipeline.s"),
    ("spelling / step", "cleaning.spelling.s", "stream.step.s"),
)


def main(argv=None):
    """Parse arguments, run one workload, print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spec", action="store_true",
                        help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Candidate generation breaks ties in string-set order, so the
        # linking work counts (not the outputs) follow the hash seed.
        # Fixing it makes every per-layer count repeat exactly.
        os.execve(
            sys.executable, [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    if args.spec:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if not _import_program():
        print("perfbench: no src/repro next to perfbench/; run it from the "
              "root of a BIVoC checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    corpus = workload.corpus(args.seed)
    if args.trace:
        recorder, metrics = traced(workload, corpus, args.seed, args.seconds)
        wanted = PER_LAYER
    else:
        recorder, metrics = untraced(workload, corpus, args.seed, args.seconds)
        wanted = END_TO_END
    for problem in recorder.problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": recorder.failed == 0,
        "attempted": max(1, recorder.attempted),
        "failed": recorder.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, *_ in wanted
        },
    }
    for name, unit, *_ in wanted:
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
