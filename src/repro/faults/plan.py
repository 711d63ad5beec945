"""Seeded fault plans: deterministic, replayable failure schedules.

Chaos testing is only trustworthy when a failure found in CI can be
replayed locally, byte for byte.  Everything here is therefore driven
by :func:`~repro.util.rng.derive_rng`: a :class:`FaultPlan` is a seed
plus a list of :class:`FaultSpec` entries, and a
:class:`FaultInjector` built from it fires the *same* faults at the
*same* fault-point hits on every run — there is no wall clock and no
global randomness anywhere in the schedule.

A spec targets one named fault point (``"checkpoint.save"``,
``"query.execute"``, ...) and describes *when* it fires (``after``
skips warm-up hits, ``probability`` draws from the point's own derived
stream, ``times`` caps total firings) and *what* happens:

* ``"io"`` — raise :class:`InjectedIOError` (an ``OSError``:
  retryable by default);
* ``"timeout"`` — raise :class:`InjectedTimeout` (a ``TimeoutError``:
  retryable by default);
* ``"fatal"`` — raise :class:`InjectedFault` (retried by nothing);
* ``"delay"`` — invoke the injector's sleep hook for ``delay``
  seconds (tests inject a fake sleep, so delays are observable
  without being slow);
* ``"corrupt"`` — only meaningful at byte-carrying points consulted
  through :func:`~repro.faults.points.corrupt_point`: flip one
  deterministically chosen byte of the payload.

The ``times`` cap is the lever that keeps chaos suites deterministic
*and* terminating: a point that fires at most N times cannot outlast a
retry loop allowed N+1 attempts.
"""

import time
from dataclasses import dataclass
from threading import Lock

from repro.obs import get_metrics, get_tracer
from repro.util.rng import derive_rng

#: Fault kinds a spec may declare, in documentation order.
FAULT_KINDS = ("io", "timeout", "fatal", "delay", "corrupt")


class InjectedFault(RuntimeError):
    """A deliberately injected failure (the non-retryable base).

    ``point`` names the fault point that fired and ``hit`` is the
    1-based hit count at which it fired — enough to reproduce the
    exact failure from the plan's seed.
    """

    def __init__(self, point, hit):
        """Record the firing coordinates for the message."""
        super().__init__(
            f"injected fault at point {point!r} (hit {hit})"
        )
        self.point = point
        self.hit = hit

    def __reduce__(self):
        """Pickle as ``(type, (point, hit))``.

        The default exception reduction replays ``args`` — the single
        formatted message — into a two-argument ``__init__`` and
        breaks.  Faults must pickle so one injected in a process-pool
        worker crosses back to the parent as itself, traceback
        chained, exactly like the serial failure.
        """
        return type(self), (self.point, self.hit)


class InjectedIOError(InjectedFault, OSError):
    """An injected transient I/O failure (retryable by default)."""


class InjectedTimeout(InjectedFault, TimeoutError):
    """An injected timeout (retryable by default)."""


#: Fault kind -> exception class raised when the spec fires.
_ERROR_CLASSES = {
    "io": InjectedIOError,
    "timeout": InjectedTimeout,
    "fatal": InjectedFault,
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault point's schedule inside a plan.

    ``point`` is the exact fault-point name the spec arms;
    ``kind`` is one of :data:`FAULT_KINDS`; ``probability`` is the
    per-hit chance of firing (drawn from the point's derived stream);
    ``times`` caps total firings (``None`` = unlimited); ``after``
    skips that many initial hits before the spec becomes eligible;
    ``delay`` is the sleep duration for ``"delay"`` faults.
    """

    point: str
    kind: str = "io"
    probability: float = 1.0
    times: "int | None" = None
    after: int = 0
    delay: float = 0.01

    def __post_init__(self):
        """Validate the schedule parameters."""
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; supported: "
                f"{list(FAULT_KINDS)}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.times is not None and self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")

    def to_json_dict(self):
        """JSON-safe form (what the CI job summary prints)."""
        return {
            "point": self.point,
            "kind": self.kind,
            "probability": self.probability,
            "times": self.times,
            "after": self.after,
            "delay": self.delay,
        }

    @classmethod
    def from_json_dict(cls, payload):
        """Rebuild a spec from :meth:`to_json_dict` output."""
        return cls(
            point=payload["point"],
            kind=payload.get("kind", "io"),
            probability=payload.get("probability", 1.0),
            times=payload.get("times"),
            after=payload.get("after", 0),
            delay=payload.get("delay", 0.01),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault specs it drives.

    Two injectors built from equal plans produce identical fault
    schedules — the reproducibility contract every chaos test and the
    CI seed matrix lean on.
    """

    seed: int
    specs: tuple = ()

    def __post_init__(self):
        """Normalise ``specs`` to a tuple of :class:`FaultSpec`."""
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(
                    f"plan specs must be FaultSpec instances, got "
                    f"{spec!r}"
                )

    def to_json_dict(self):
        """JSON-safe form of the whole plan."""
        return {
            "seed": self.seed,
            "specs": [spec.to_json_dict() for spec in self.specs],
        }

    @classmethod
    def from_json_dict(cls, payload):
        """Rebuild a plan from :meth:`to_json_dict` output."""
        return cls(
            seed=payload["seed"],
            specs=tuple(
                FaultSpec.from_json_dict(entry)
                for entry in payload.get("specs", [])
            ),
        )

    def injector(self, sleep=None):
        """A fresh :class:`FaultInjector` armed with this plan."""
        return FaultInjector(self, sleep=sleep)


class _PointState:
    """Mutable per-point bookkeeping inside one injector."""

    __slots__ = ("spec", "rng", "hits", "fired")

    def __init__(self, spec, seed):
        """Arm ``spec`` with its own derived random stream."""
        self.spec = spec
        self.rng = derive_rng(seed, f"fault:{spec.point}")
        self.hits = 0
        self.fired = 0


class FaultInjector:
    """Fires a plan's faults at named fault points, deterministically.

    Thread-safe: the serve chaos tests hit fault points from N reader
    threads concurrently, so the per-point hit/firing bookkeeping is
    lock-protected.  ``sleep`` injects the delay hook (defaults to
    ``time.sleep``; chaos tests pass a recording fake so ``"delay"``
    faults are observable without slowing the suite down).

    Observability is write-only: every firing opens a
    ``fault:<point>`` span and bumps ``fault.injected`` counters;
    nothing about the schedule reads them back.
    """

    def __init__(self, plan, sleep=None):
        """Arm every spec of ``plan``; see the class docstring."""
        self.plan = plan
        self._sleep = sleep if sleep is not None else time.sleep
        self._lock = Lock()
        self._points = {}
        for spec in plan.specs:
            if spec.point in self._points:
                raise ValueError(
                    f"plan arms fault point {spec.point!r} twice; "
                    f"merge the schedules into one spec"
                )
            self._points[spec.point] = _PointState(spec, plan.seed)

    def _draw(self, name, corrupting):
        """Decide (under the lock) whether ``name`` fires this hit.

        ``corrupting`` says which call site is asking: ``"corrupt"``
        specs only act at :meth:`corrupt` points and every other kind
        only at :meth:`fault_point` hits, so a mismatched spec never
        fires (and never consumes a probability draw — the schedule
        stays a pure function of the matching hit sequence).  Returns
        the armed spec and the 1-based hit number when the point
        fires, else ``(None, 0)``.
        """
        with self._lock:
            state = self._points.get(name)
            if state is None:
                return None, 0
            state.hits += 1
            spec = state.spec
            if (spec.kind == "corrupt") != corrupting:
                return None, 0
            if state.hits <= spec.after:
                return None, 0
            if spec.times is not None and state.fired >= spec.times:
                return None, 0
            if spec.probability < 1.0:
                if state.rng.random() >= spec.probability:
                    return None, 0
            state.fired += 1
            return spec, state.hits

    def _record(self, spec, hit):
        """Write the firing into the ambient span/metric collectors."""
        metrics = get_metrics()
        metrics.counter("fault.injected").inc()
        metrics.counter(f"fault.injected.{spec.point}").inc()
        with get_tracer().span(
            f"fault:{spec.point}",
            category="faults",
            tags={"kind": spec.kind, "hit": hit},
        ):
            pass

    def fault_point(self, name):
        """One fault-point hit: raise, delay, or do nothing.

        Called (via :func:`repro.faults.points.fault_point`) from
        production code; a point no spec arms costs one dict lookup.
        ``"corrupt"`` specs never fire here — they only act at
        byte-carrying :meth:`corrupt` points.
        """
        spec, hit = self._draw(name, corrupting=False)
        if spec is None:
            return None
        self._record(spec, hit)
        if spec.kind == "delay":
            self._sleep(spec.delay)
            return None
        raise _ERROR_CLASSES[spec.kind](name, hit)

    def corrupt(self, name, data):
        """Possibly corrupt ``data`` (bytes) at the named point.

        When a ``"corrupt"`` spec fires, one deterministically chosen
        byte is XOR-flipped — enough to break any checksum while
        keeping the corruption reproducible from the plan seed.
        Non-``corrupt`` specs are ignored here: an error-kind spec
        cannot fire at a byte-transformation point.
        """
        spec, hit = self._draw(name, corrupting=True)
        if spec is None or not data:
            return data
        self._record(spec, hit)
        with self._lock:
            position = int(
                self._points[name].rng.integers(0, len(data))
            )
        corrupted = bytearray(data)
        corrupted[position] ^= 0xFF
        return bytes(corrupted)

    def counts(self):
        """Per-point ``{"hits": n, "fired": n}`` bookkeeping snapshot."""
        with self._lock:
            return {
                name: {"hits": state.hits, "fired": state.fired}
                for name, state in sorted(self._points.items())
            }


def default_chaos_plan(seed):
    """The stock chaos schedule the CLI demo and chaos suite share.

    Arms the stream and serve layers' standard fault points with
    bounded (``times``-capped) schedules, so a retry policy with more
    attempts than the cap always converges — the property that makes
    the chaos suite's bit-identity assertion a certainty rather than a
    probability.  All randomness derives from ``seed``.
    """
    rng = derive_rng(seed, "chaos-plan")
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(
                point="checkpoint.save",
                kind="io",
                probability=float(rng.uniform(0.2, 0.5)),
                times=4,
            ),
            FaultSpec(
                point="checkpoint.load",
                kind="io",
                probability=float(rng.uniform(0.2, 0.5)),
                times=2,
            ),
            FaultSpec(
                point="checkpoint.bytes",
                kind="corrupt",
                probability=float(rng.uniform(0.1, 0.3)),
                times=2,
                after=1,
            ),
            FaultSpec(
                point="stream.batch-committed",
                kind="fatal",
                probability=float(rng.uniform(0.1, 0.25)),
                times=3,
                after=1,
            ),
            FaultSpec(
                point="replay.read",
                kind="io",
                probability=1.0,
                times=2,
            ),
            FaultSpec(
                point="query.execute",
                kind="io",
                probability=float(rng.uniform(0.3, 0.6)),
                times=6,
            ),
        ),
    )
