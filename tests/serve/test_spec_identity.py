"""A query's identity is its parsed spec: ``==`` iff the fingerprints agree.

The result cache and the engine's last-good answers are keyed by the
canonical :class:`~repro.serve.queries.QuerySpec` itself.  That key is
sound only if every parsed spec hashes and two specs are ``==``
exactly when the retired JSON fingerprint
(:func:`~tests.serve.reference.reference_fingerprint`) says they are
the same computation.  Hypothesis draws a query's *meaning* from small
pools (so independent draws often coincide) and spells it several
ways: filters lowered vs. spelled out, lists vs. tuples, payload key
order, focus and key order, defaults omitted vs. given.  Bucket lists
may hold entries that are not integers; those payloads must be
refused at parse time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.index import field_key
from repro.serve import QueryError, QuerySpec

from tests.serve.reference import reference_fingerprint

KEYS = (
    ("field", "city", "boston"),
    ("field", "city", "austin"),
    ("field", "car", "suv"),
    ("concept", "issue", "billing"),
)
DIMENSIONS = (("field", "city"), ("field", "car"), ("concept", "issue"))
CATEGORIES = ("issue", "driver")
CHANNELS = ("email", "sms")
CHANNEL_DIM = ("field", "channel")

#: Bucket entries a parser must refuse (each is ``==`` to, or prints
#: like, an integer bucket).
BAD_BUCKETS = ([1, 2], "1", None, True, False, 1.0, 2.0)

optional = lambda strategy: st.none() | strategy  # noqa: E731


@st.composite
def bucket_lists(draw):
    """A forced bucket list: ints, maybe a range, maybe a bad entry."""
    if draw(st.booleans()):
        lo = draw(st.integers(0, 2))
        return tuple(range(lo, lo + draw(st.integers(1, 3))))
    good = draw(st.lists(st.integers(0, 3), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        good.insert(
            draw(st.integers(0, len(good))), draw(st.sampled_from(BAD_BUCKETS))
        )
    return tuple(good)


def _key_sets(min_size):
    return st.frozensets(st.sampled_from(KEYS), min_size=min_size,
                         max_size=3)


MEANINGS = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("relfreq"),
        "focus": _key_sets(1),
        "channel": optional(st.sampled_from(CHANNELS)),
        "candidates": st.sampled_from(DIMENSIONS),
        "min_focus_count": optional(st.integers(0, 2)),
    }),
    st.fixed_dictionaries({
        "kind": st.just("assoc2d"),
        "rows": st.sampled_from(DIMENSIONS),
        "cols": st.sampled_from(DIMENSIONS),
        "row_values": optional(st.permutations(("boston", "austin"))),
        "col_values": optional(st.just(("suv",))),
        "confidence": optional(st.sampled_from((0.9, 0.95))),
        "method": optional(st.sampled_from(("wilson", "normal"))),
    }),
    st.fixed_dictionaries({
        "kind": st.just("trends"),
        "key": st.sampled_from(KEYS),
        "buckets": optional(bucket_lists()),
    }),
    st.fixed_dictionaries({
        "kind": st.just("emerging"),
        "dimension": st.sampled_from(DIMENSIONS),
        "buckets": optional(bucket_lists()),
        "min_total": optional(st.integers(2, 3)),
    }),
    st.fixed_dictionaries({
        "kind": st.just("cube"),
        "dimensions": st.lists(st.sampled_from(DIMENSIONS), min_size=1,
                               max_size=3, unique=True),
        "category": optional(st.sampled_from(CATEGORIES)),
        "channel": optional(st.sampled_from(CHANNELS)),
        "rollup": st.booleans(),
    }),
    st.fixed_dictionaries({
        "kind": st.just("drilldown"),
        "keys": _key_sets(1),
        "channel": optional(st.sampled_from(CHANNELS)),
        "with_text": optional(st.booleans()),
    }),
    st.just({"kind": "status"}),
)


def _bad(meaning):
    """True when the meaning forces a bucket that is not an int."""
    buckets = meaning.get("buckets") or ()
    return any(
        isinstance(bucket, bool) or not isinstance(bucket, int)
        for bucket in buckets
    )


@st.composite
def spelled(draw, meaning):
    """One JSON-safe payload for ``meaning``, in a drawn spelling."""
    seq = draw(st.sampled_from((list, tuple)))
    use_filters = draw(st.booleans())
    kind = meaning["kind"]
    params = {}
    filters = {}

    def put(name, value):
        """Set a defaulted parameter, or leave it out when unset."""
        if value is not None:
            params[name] = value

    if kind == "relfreq":
        focus = [seq(key) for key in sorted(meaning["focus"])]
        if meaning["channel"] is not None:
            if use_filters:
                filters["channel"] = meaning["channel"]
            else:
                focus.append(seq(field_key("channel", meaning["channel"])))
        params["focus"] = seq(draw(st.permutations(focus)))
        candidates = meaning["candidates"]
        if use_filters and candidates[0] == "concept":
            filters["category"] = candidates[1]
        else:
            params["candidates"] = seq(candidates)
        put("min_focus_count", meaning["min_focus_count"])
    elif kind == "assoc2d":
        params["rows"] = seq(meaning["rows"])
        params["cols"] = seq(meaning["cols"])
        for name in ("row_values", "col_values"):
            if meaning[name] is not None:
                params[name] = seq(meaning[name])
        put("confidence", meaning["confidence"])
        put("method", meaning["method"])
    elif kind in ("trends", "emerging"):
        if kind == "trends":
            params["key"] = seq(meaning["key"])
        else:
            dimension = meaning["dimension"]
            if use_filters and dimension[0] == "concept":
                filters["category"] = dimension[1]
            else:
                params["dimension"] = seq(dimension)
            put("min_total", meaning["min_total"])
        buckets = meaning["buckets"]
        if buckets is not None:
            lo = buckets[0] if buckets and not _bad(meaning) else None
            if use_filters and lo is not None and (
                buckets == tuple(range(lo, lo + len(buckets)))
            ):
                filters["buckets"] = seq((lo, buckets[-1]))
            else:
                params["buckets"] = seq(buckets)
    elif kind == "cube":
        dimensions = list(meaning["dimensions"])
        category, channel = meaning["category"], meaning["channel"]
        if use_filters:
            if category is not None:
                filters["category"] = category
            if channel is not None:
                filters["channel"] = channel
        else:
            for extra in (
                None if category is None else ("concept", category),
                None if channel is None else CHANNEL_DIM,
            ):
                if extra is not None and extra not in dimensions:
                    dimensions.append(extra)
            if channel is not None:
                params["slice"] = seq((seq(CHANNEL_DIM), channel))
        params["dimensions"] = seq(seq(dim) for dim in dimensions)
        if meaning["rollup"] and channel is None:
            params["rollup"] = seq([seq(meaning["dimensions"][0])])
    elif kind == "drilldown":
        keys = [seq(key) for key in sorted(meaning["keys"])]
        if meaning["channel"] is not None:
            if use_filters:
                filters["channel"] = meaning["channel"]
            else:
                keys.append(seq(field_key("channel", meaning["channel"])))
        params["keys"] = seq(draw(st.permutations(keys)))
        put("with_text", meaning["with_text"])
    if filters or draw(st.booleans()):
        params["filters"] = filters
    items = [("kind", kind), *params.items()]
    return dict(draw(st.permutations(items)))


def _parsed(payload):
    """The parsed spec, or ``None`` when the payload is refused."""
    try:
        return QuerySpec.parse(payload)
    except QueryError:
        return None


@st.composite
def payload_pairs(draw):
    """One meaning spelled twice, or two meanings spelled once each."""
    first = draw(MEANINGS)
    second = first if draw(st.booleans()) else draw(MEANINGS)
    return first is second, (
        (first, draw(spelled(first))),
        (second, draw(spelled(second))),
    )


@settings(max_examples=500, deadline=None)
@given(payload_pairs())
def test_spec_equality_is_fingerprint_equality(case):
    """Parsed specs hash, and ``==`` exactly when fingerprints agree.

    Every spelling of one meaning parses to one spec.
    """
    respelled, pair = case
    specs = []
    for meaning, payload in pair:
        spec = _parsed(payload)
        assert (spec is None) == _bad(meaning), payload
        specs.append(spec)
    a, b = specs
    if a is None or b is None:
        return
    same = reference_fingerprint(a) == reference_fingerprint(b)
    assert (a == b) == same
    assert same or not respelled
    if same:
        assert hash(a) == hash(b)
        assert {a: "answer"}[b] == "answer"
