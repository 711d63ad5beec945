"""Machine-speed correction for the benchmark's timings.

On a small shared VM the same Python code runs up to twice as fast in
some stretches of a minute as in others (measured on a 2-vCPU box: one
study call took 0.48 s in one stretch and 0.95 s in the next).  Raw
run-to-run spreads of 0.16-0.45 follow from that, whatever the code.

:func:`timed` therefore runs a fixed integer loop, independent of the
program, right before and right after each timed interval, and scales
the interval's wall time by ``REFERENCE_S / loop time``: the time it
would have taken on a machine where the loop takes ``REFERENCE_S``.
A program change moves the interval and not the loop, so it shows in
full; a machine phase moves both and largely cancels.  (Measured
side by side, this loop tracked the phases better than dict and
string work, and sampling it on both CPUs for the process backend
gained nothing over sampling it here.)
"""

import time

#: Loop time, in seconds, at the reference machine speed.
REFERENCE_S = 0.004

_ITERATIONS = 60000


def speed_loop():
    """Seconds one fixed slice of integer work takes now."""
    started = time.perf_counter()
    total = 0
    for number in range(_ITERATIONS):
        total += (number * 7) % 13
    return time.perf_counter() - started


def timed(fn, *args, **kwargs):
    """``(result, wall seconds, corrected seconds)`` of one call."""
    before = speed_loop()
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - started
    after = speed_loop()
    return result, elapsed, elapsed * REFERENCE_S * 2 / (before + after)
