"""A small deterministic metrics registry.

Three instrument kinds, all plain counters over plain dicts:

* :class:`Counter` — monotonically increasing totals (documents
  indexed, Fagin random accesses, EM iterations);
* :class:`Gauge` — last-written values (committed stream offset);
* :class:`Histogram` — value distributions over **fixed** bucket
  boundaries declared at creation time, so two runs (or two processes)
  bucket identically and snapshots can be compared line-by-line.

A :class:`MetricsRegistry` hands out instruments by name
(get-or-create) and snapshots the whole family as one sorted plain
dict, which the engine and stream layers merge into their reports.
Like tracing, metrics are instrumentation only: nothing in the
pipeline reads an instrument back, so a metered run is bit-identical
to an unmetered one.  The ambient default (:mod:`repro.obs.ambient`)
is :data:`NULL_METRICS`, whose instruments are shared no-ops.
"""

import threading
from bisect import bisect_left

#: Default histogram boundaries for wall-time observations, in
#: seconds: ten fixed decades-and-halves from 10us to 30s.  Fixed so
#: every layer's latency histograms are comparable across runs.
TIME_BUCKETS = (
    0.00001, 0.0001, 0.0005, 0.001, 0.005,
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name):
        """A zeroed counter called ``name``."""
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        """Add ``amount`` (must be >= 0); returns the counter."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount
        return self

    def snapshot_value(self):
        """The current total."""
        return self.value


class Gauge:
    """A last-written value."""

    kind = "gauge"

    def __init__(self, name):
        """A gauge called ``name``, initially ``None`` (never set)."""
        self.name = name
        self.value = None

    def set(self, value):
        """Overwrite the value; returns the gauge."""
        self.value = value
        return self

    def snapshot_value(self):
        """The last value written, or ``None``."""
        return self.value


class Histogram:
    """Bucketed value distribution with fixed boundaries.

    ``buckets`` is the strictly increasing tuple of upper bounds; an
    observation lands in the first bucket whose bound it does not
    exceed, or in the implicit overflow bucket.  Boundaries are fixed
    at creation and part of the instrument's identity — asking the
    registry for the same name with different boundaries is an error,
    never a silent re-bucketing.
    """

    kind = "histogram"

    def __init__(self, name, buckets=TIME_BUCKETS):
        """An empty histogram over ``buckets`` upper bounds."""
        bounds = tuple(buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} bucket bounds must be strictly "
                f"increasing, got {bounds}"
            )
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value):
        """Record one observation; returns the histogram."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1
        return self

    def snapshot_value(self):
        """Plain-dict form: bounds, per-bucket counts, sum, count."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Named instruments, get-or-create, one snapshot.

    Thread-safe for instrument creation (``bivoc serve``'s request
    threads may race to create the same counter); individual ``inc``/``observe``
    calls on CPython are dict/int operations and are only ever issued
    from code that already serialises its shared state.
    """

    def __init__(self):
        """An empty registry."""
        self._instruments = {}
        self._lock = threading.Lock()

    def counter(self, name):
        """The counter called ``name``, created on first use."""
        return self._get(name, Counter, ())

    def gauge(self, name):
        """The gauge called ``name``, created on first use."""
        return self._get(name, Gauge, ())

    def histogram(self, name, buckets=TIME_BUCKETS):
        """The histogram called ``name``, created on first use.

        Raises if ``name`` exists with different bucket boundaries.
        """
        instrument = self._get(name, Histogram, (buckets,))
        if instrument.buckets != tuple(buckets):
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{instrument.buckets}, requested {tuple(buckets)}"
            )
        return instrument

    def _get(self, name, cls, extra_args):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, *extra_args)
                self._instruments[name] = instrument
                return instrument
        if not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} is a {instrument.kind}, not a "
                f"{cls.kind}"
            )
        return instrument

    def __len__(self):
        """Number of registered instruments."""
        return len(self._instruments)

    def snapshot(self):
        """All instruments as one plain dict, sorted by name.

        Shape: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` with empty sections omitted; an empty
        registry snapshots to ``{}``.
        """
        sections = {"counter": {}, "gauge": {}, "histogram": {}}
        with self._lock:
            instruments = sorted(self._instruments.items())
        for name, instrument in instruments:
            sections[instrument.kind][name] = instrument.snapshot_value()
        out = {}
        for kind, plural in (
            ("counter", "counters"),
            ("gauge", "gauges"),
            ("histogram", "histograms"),
        ):
            if sections[kind]:
                out[plural] = sections[kind]
        return out


class _NullInstrument:
    """Shared no-op standing in for every instrument kind."""

    __slots__ = ()

    def inc(self, amount=1):
        """No-op; returns itself."""
        return self

    def set(self, value):
        """No-op; returns itself."""
        return self

    def observe(self, value):
        """No-op; returns itself."""
        return self


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Registry that records nothing (the ambient default)."""

    def counter(self, name):
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name):
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(self, name, buckets=TIME_BUCKETS):
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def snapshot(self):
        """Always ``{}``."""
        return {}

    def __len__(self):
        """Always 0."""
        return 0


#: The process-wide "metrics off" singleton.
NULL_METRICS = NullMetrics()
