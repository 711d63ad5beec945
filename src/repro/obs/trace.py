"""Span-based tracing with an injectable clock.

A :class:`Span` is one timed region of work — a pipeline stage, a
micro-batch, a Fagin merge — with a name, a category, free-form tags
and a parent, so a trace is a forest of nested regions that can be
exported to the Chrome trace viewer or summarised as a text flame
view (:mod:`repro.obs.export`).

Design constraints, in order:

* **Determinism of outputs.**  Tracing is instrumentation only: spans
  record what happened but never feed back into document flow, so a
  traced run produces bit-identical pipeline outputs to an untraced
  run (asserted in the test suite).  The clock is injectable — the
  default is the monotonic performance counter, referenced but never
  called at import time — so tests can drive spans with a fake clock
  and assert on exact durations.
* **Zero cost when off.**  The ambient tracer
  (:mod:`repro.obs.ambient`) defaults to :data:`NULL_TRACER`, whose
  ``span()`` returns one shared no-op context manager; instrumented
  hot paths pay a dict lookup and a no-op call, nothing else.
* **Thread-correct nesting.**  Parent linkage uses a per-thread span
  stack, so spans opened on ``bivoc serve``'s request threads and its
  ingesting thread nest under the span their own thread entered;
  callers that fan work out across threads pass ``parent=`` explicitly
  to keep a hierarchy intact.
"""

import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One finished (or in-flight) timed region of a trace.

    ``start`` and ``end`` are clock readings from the owning tracer's
    clock; ``end`` is ``None`` while the span is open.  ``parent_id``
    is ``None`` for root spans.  ``thread`` is a small dense integer
    assigned by the tracer in first-seen order, not the OS thread id,
    so exported traces are stable across runs of the same shape.
    """

    span_id: int
    name: str
    category: str = ""
    parent_id: object = None  # int or None
    tags: dict = field(default_factory=dict)
    start: float = 0.0
    end: object = None  # float or None
    thread: int = 0

    @property
    def duration(self):
        """Elapsed clock time, or 0.0 while the span is still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def tag(self, name, value):
        """Attach one tag; returns the span for chaining."""
        self.tags[name] = value
        return self

    def to_json_dict(self):
        """Plain-dict form (one JSONL record per span)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "start": self.start,
            "dur": self.duration,
            "thread": self.thread,
            "tags": dict(self.tags),
        }


class _SpanContext:
    """Context manager that opens a span on entry, closes it on exit."""

    __slots__ = ("_tracer", "_name", "_category", "_tags", "_parent",
                 "_span")

    def __init__(self, tracer, name, category, tags, parent):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._tags = tags
        self._parent = parent
        self._span = None

    def __enter__(self):
        self._span = self._tracer._open(
            self._name, self._category, self._tags, self._parent
        )
        return self._span

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._span.tags.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects spans for one traced run.

    ``clock`` is the timing source (default: the monotonic performance
    counter); it is read on span entry and exit only.  Span ids are
    dense integers in open order; finished spans are available from
    :meth:`finished` in close order.  The tracer is safe to use from
    the engine's worker threads: id allocation and the finished list
    are lock-protected, and parent tracking is per-thread.
    """

    def __init__(self, clock=None):
        """A fresh, empty tracer."""
        # Instrumentation-only clock (injectable; see module docstring).
        self._clock = clock if clock is not None else time.perf_counter
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished = []
        self._next_id = 0
        self._thread_numbers = {}

    def span(self, name, category="", tags=None, parent=None):
        """A context manager that times one region.

        ``parent`` overrides the per-thread nesting (pass the
        enclosing span when fanning work out across threads); ``tags``
        seeds the span's tag dict.
        """
        return _SpanContext(self, name, category, tags, parent)

    def finished(self):
        """Finished spans, in completion order (a copy)."""
        with self._lock:
            return list(self._finished)

    def clear(self):
        """Drop every finished span (open spans are unaffected)."""
        with self._lock:
            self._finished = []

    def __len__(self):
        """Number of finished spans."""
        with self._lock:
            return len(self._finished)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _open(self, name, category, tags, parent):
        stack = self._stack()
        if parent is None and stack:
            parent_id = stack[-1].span_id
        elif parent is not None:
            parent_id = parent.span_id
        else:
            parent_id = None
        ident = threading.get_ident()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            thread = self._thread_numbers.setdefault(
                ident, len(self._thread_numbers)
            )
        span = Span(
            span_id=span_id,
            name=name,
            category=category,
            parent_id=parent_id,
            tags=dict(tags) if tags else {},
            thread=thread,
        )
        span.start = self._clock()
        stack.append(span)
        return span

    def _close(self, span):
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested close: drop it anyway
            stack.remove(span)
        with self._lock:
            self._finished.append(span)


class _NullSpan:
    """Shared no-op span: the entire cost of tracing-while-off."""

    __slots__ = ()

    def __enter__(self):
        """No-op; returns itself so ``as span`` still works."""
        return self

    def __exit__(self, exc_type, exc, tb):
        """No-op; never suppresses exceptions."""
        return False

    def tag(self, name, value):
        """No-op; returns itself for chaining."""
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer that records nothing (the ambient default).

    Duck-types :class:`Tracer` so instrumented code never branches on
    whether tracing is active.
    """

    def span(self, name, category="", tags=None, parent=None):
        """The shared no-op span context manager."""
        return _NULL_SPAN

    def finished(self):
        """Always empty."""
        return []

    def clear(self):
        """No-op."""

    def __len__(self):
        """Always 0."""
        return 0


#: The process-wide "tracing off" singleton.
NULL_TRACER = NullTracer()
