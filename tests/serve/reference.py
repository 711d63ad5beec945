"""Reference identity for query specs: the retired JSON fingerprint.

Served queries used to carry two identities: the frozen, hashable
:class:`~repro.serve.queries.QuerySpec` and a canonical JSON string of
it, which keyed the result cache and the last-good answers.  The spec
is now the only key; :func:`reference_fingerprint` keeps the string
form, verbatim, so the identity tests can check that two parsed specs
are ``==`` exactly when their fingerprints are equal.
"""

import json


def reference_fingerprint(spec):
    """Stable cache-key string for this exact computation."""
    return json.dumps(
        {"kind": spec.kind, "params": _jsonify(dict(spec.params))},
        sort_keys=True, separators=(",", ":"),
    )


def _jsonify(value):
    """Tuples to lists, recursively — the wire form of params."""
    if isinstance(value, tuple) or isinstance(value, list):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value
