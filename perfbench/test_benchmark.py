"""The benchmark's own tests: its spec, its oracles, repeatable counts.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each test drives ``perfbench/run.py`` as a subprocess, exactly as a
benchmark run would be driven, with short runs.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import PER_LAYER, WORKLOADS, benchmark_json  # noqa: E402

NAMES = [name for name, _ in WORKLOADS]

#: Per-layer metrics that are deterministic work, not time.
EXACT = [
    name for name, unit, _ in PER_LAYER
    if unit in ("count", "bytes", "ratio") and not name.startswith("trace.")
]


def run(workload, trace, seed=3, seconds=1):
    """One benchmark run; returns its result line as a dict."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_benchmark_json_matches_spec():
    """The committed BENCHMARK.json is the one spec.py describes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        assert json.load(f) == benchmark_json()


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_passes_its_oracles(workload):
    """Pins, process == serial and stream == batch all hold."""
    result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_exactly(workload):
    """Two traced runs at one seed agree on every per-layer count.

    Each traced run also checks its outputs against an untraced unit,
    so ``correct`` asserts traced == untraced.
    """
    first, second = run(workload, trace=1), run(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert {name: first["metrics"][name]["value"] for name in EXACT} == {
        name: second["metrics"][name]["value"] for name in EXACT
    }
