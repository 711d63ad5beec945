"""Insight serving: snapshot-isolated queries over live ingestion.

The paper's end product is the indexing & reporting engine (Section
IV-D, Fig 4): analysts issue relative-frequency, two-dimensional
association and drill-down queries against the concept index.  This
package turns the reproduction's one-shot analytics into that served
shape — answering queries *concurrently with ingestion* while staying
bit-identical to the batch computations:

* :mod:`~repro.serve.queries` — declarative query specs (relfreq /
  assoc2d / trends / emerging / cube / drilldown / status) with
  paper-style drill-down filters, canonicalized for caching and
  planned onto the existing batch analytics;
* :mod:`~repro.serve.cache` — the LRU result cache, one entry per
  spec stamped with its epoch: an entry hits only at its own epoch, so
  advancing the stream invalidates every stale entry by construction
  and a cached result can never be stale;
* :mod:`~repro.serve.engine` — :class:`QueryEngine`, executing specs
  against the current :class:`~repro.stream.epoch.EpochStore` snapshot,
  with ``query:*`` spans and
  latency/cache metrics (write-only: cached == uncached == untraced) —
  plus the resilience hooks: retries with deadlines around execution,
  and per-kind circuit breakers that degrade to last-good answers
  (marked ``degraded``) instead of failing outright;
* :mod:`~repro.serve.wire` — JSON-safe renderings of every result
  type (what the HTTP API and the in-process client both return);
* :mod:`~repro.serve.api` / :mod:`~repro.serve.client` /
  :mod:`~repro.serve.server` — the shared request handler, the
  in-process :class:`LocalClient`, and the stdlib
  ``ThreadingHTTPServer`` JSON frontend behind ``bivoc serve`` with
  graceful, draining shutdown.
"""

from repro.serve.cache import QueryCache
from repro.serve.client import LocalClient
from repro.serve.engine import QueryEngine, QueryResult
from repro.serve.queries import QueryError, QuerySpec, plan_query
from repro.serve.server import InsightServer
from repro.serve.wire import result_to_wire

__all__ = [
    "QueryCache",
    "QueryEngine",
    "QueryResult",
    "QueryError",
    "QuerySpec",
    "plan_query",
    "LocalClient",
    "InsightServer",
    "result_to_wire",
]
