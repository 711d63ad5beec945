"""Who calls the backend: the test's own thread, or a worker thread.

The contract and bit-identity tests run each case once per *driver*:
every backend kind called from the test's own thread, plus ``"thread"``,
the process backend called from a fresh worker thread.  The last covers
a library caller that runs a pipeline off its main thread, so the warm
pool is forked from a process that already runs other threads.
"""

import threading

from repro.exec import BACKEND_KINDS

#: Driver ids, one parametrize case each.
DRIVERS = (*BACKEND_KINDS, "thread")

#: Seconds a worker-thread driver may run before the test fails.
JOIN_TIMEOUT_S = 300


def on_worker_thread(call):
    """``call()`` on a fresh worker thread; its result, or its error
    re-raised on the calling thread."""
    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except BaseException as error:  # re-raised below
            outcome["error"] = error

    worker = threading.Thread(target=run, name="backend-driver", daemon=True)
    worker.start()
    worker.join(JOIN_TIMEOUT_S)
    assert not worker.is_alive(), (
        f"driver thread still running after {JOIN_TIMEOUT_S} s"
    )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def drive(driver, body):
    """``body(kind)`` under one driver: a backend kind on this thread,
    or ``"process"`` on a worker thread for the thread driver."""
    if driver in BACKEND_KINDS:
        return body(driver)
    return on_worker_thread(lambda: body("process"))
