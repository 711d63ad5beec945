"""``bivoc serve``: end-to-end CLI serving, warm start, shutdown."""

import json
import threading
import time
import urllib.request
from contextlib import contextmanager

import pytest

from repro.cli import main


def _await_ready(path, timeout=30.0):
    """Poll the --ready-file until the server reports its address."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            time.sleep(0.05)
    raise AssertionError(f"server never wrote ready file {path}")


def _post(base, path, payload):
    """POST JSON to the served API."""
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def _get(base, path):
    """GET JSON from the served API."""
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read())


def _await_drained(base, timeout=30.0):
    """Poll /status until the committed epoch stops advancing."""
    deadline = time.monotonic() + timeout
    last = None
    stable = 0
    while time.monotonic() < deadline:
        body = _get(base, "/status")
        if body["epoch"] == last:
            stable += 1
            if stable >= 3:
                return body
        else:
            stable = 0
            last = body["epoch"]
        time.sleep(0.1)
    raise AssertionError("ingestion never settled")


@contextmanager
def _serving(argv, ready):
    """Run ``bivoc serve`` on a thread; yields (base URL, result box).

    On the way out it always posts ``/shutdown`` and joins the thread,
    so a failed assertion never leaves the non-daemon server running
    (and pytest waiting on it forever).  Posting twice is harmless: a
    second request finds the server stopping or already gone.
    """
    box = {}

    def run():
        """Capture the CLI exit code for the joining test."""
        box["code"] = main(argv)

    thread = threading.Thread(target=run)
    thread.start()
    base = None
    try:
        info = _await_ready(ready)
        base = f"http://{info['host']}:{info['port']}"
        yield base, box
    finally:
        if base is not None:
            try:
                _post(base, "/shutdown", {})
            except OSError:
                pass  # already drained and closed
        thread.join(timeout=60)
        assert not thread.is_alive()


@pytest.fixture()
def serve_args(tmp_path):
    """Small-corpus baseline argv; tests extend it."""
    ready = tmp_path / "ready.json"
    return ready, [
        "serve", "--source", "carrental", "--agents", "4",
        "--days", "2", "--port", "0",
        "--ready-file", str(ready),
    ]


def test_serve_answers_and_shuts_down_gracefully(serve_args):
    """The CLI server ingests, answers queries, and drains on request."""
    ready, argv = serve_args
    with _serving(argv, ready) as (base, box):
        status = _get(base, "/status")
        assert {"documents", "concepts"} <= set(status["result"])
        body = _post(
            base, "/query",
            {"kind": "cube", "dimensions": [["field", "channel"]]},
        )
        assert body["kind"] == "cube"
        assert body["epoch"] >= -1
        assert _post(base, "/shutdown", {}) == {"stopping": True}
    assert box["code"] == 0
    # A clean drain removes the ready file: a stale address must not
    # outlive the server that wrote it (supervisors poll this path).
    assert not ready.exists()


def test_serve_warm_starts_from_checkpoint(serve_args, tmp_path):
    """A second run with the same --checkpoint resumes, not replays."""
    ready, argv = serve_args
    checkpoint = tmp_path / "serve.ckpt"
    argv = argv + ["--checkpoint", str(checkpoint),
                   "--checkpoint-interval", "1"]

    with _serving(list(argv), ready) as (base, box):
        first = _await_drained(base)
    assert box["code"] == 0
    assert checkpoint.exists()

    # The drained first run already removed its own ready file, so the
    # second run's _await_ready cannot read a stale address.
    assert not ready.exists()
    with _serving(list(argv), ready) as (base, box):
        second = _await_drained(base)
    assert box["code"] == 0
    # The warm-started server sees the same fully drained corpus.
    assert second["result"]["documents"] == first["result"]["documents"]
    assert second["epoch"] >= first["epoch"]
