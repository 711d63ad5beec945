"""The ambient fault-injection slot: cheap points, explicit arming.

Production code declares *where* faults can happen with one call —

    from repro.faults import fault_point

    def save(self):
        fault_point("checkpoint.save")
        ...

— and stays completely ignorant of *whether* any fault is armed.  The
default injector is a shared null object whose :func:`fault_point` is
one attribute lookup and an immediate return, so an uninjected run
pays essentially nothing (the same bargain :mod:`repro.obs` strikes
for spans and counters).

:func:`injecting` swaps a real :class:`~repro.faults.plan.FaultInjector`
in for one ``with`` block, exactly like ``repro.obs.activated``:
activation is for the top of a run (a chaos test, ``bivoc chaos``),
threads inside the block (and process-pool workers forked inside it)
observe the same injector, and the
previous slot is always restored — even when the injected fault
escapes the block, which in a chaos test it regularly does.
"""

from contextlib import contextmanager


class NullInjector:
    """The do-nothing injector standing in when no plan is armed."""

    __slots__ = ()

    def fault_point(self, name):
        """No-op: no fault ever fires."""
        return None

    def corrupt(self, name, data):
        """No-op: the payload passes through untouched."""
        return data


#: The shared null injector (the ambient default).
NULL_INJECTOR = NullInjector()

_active_injector = NULL_INJECTOR


def get_injector():  # bivoc: effects[ambient-obs]
    """The ambient fault injector (the null injector unless armed).

    Declared ``ambient-obs`` for ``bivoc effects``: like the tracer
    and metrics slots, reading the injector slot is the sanctioned
    ambient channel, swapped only at the top of a run.
    """
    return _active_injector


def fault_point(name):  # bivoc: effects[ambient-obs]
    """Declare one named fault point; fires whatever is armed for it.

    Raises an :class:`~repro.faults.plan.InjectedFault` subclass (or
    sleeps, for delay faults) when an armed plan schedules a firing
    here; does nothing otherwise.  Cheap enough for hot paths: the
    unarmed cost is one global read and one no-op method call.
    """
    return _active_injector.fault_point(name)


def corrupt_point(name, data):  # bivoc: effects[ambient-obs]
    """Pass ``data`` (bytes) through the named corruption point.

    Returns the payload unchanged unless an armed ``"corrupt"`` spec
    fires, in which case one deterministically chosen byte comes back
    flipped — the hook checksum verification is tested against.
    """
    return _active_injector.corrupt(name, data)


@contextmanager
def injecting(injector):
    """Arm ``injector`` as the ambient slot for one ``with`` block.

    Restores the previous injector on exit no matter how the block
    ends — injected faults escaping the block must not leave the slot
    armed for unrelated code.  Yields the injector.
    """
    global _active_injector
    previous = _active_injector
    _active_injector = injector
    try:
        yield injector
    finally:
        _active_injector = previous
