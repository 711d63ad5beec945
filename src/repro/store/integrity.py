"""Payload integrity: checksums over JSON state, torn-write detection.

Durable state (checkpoints, saved warehouses) can be corrupted by a
crash mid-write, a bad disk, or — in the chaos suite — a deliberately
flipped byte.  The defence is cheap and total: stamp every payload
with a SHA-256 over its canonical JSON form at write time, verify at
read time, and treat any mismatch as "this file does not exist in a
usable form" so callers can fall back to the previous good copy.

The checksum is computed over the canonical form
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` with
the checksum field itself excluded, so it is insensitive to key order
but sensitive to every value bit — exactly the equality the
repository's ``==`` bit-identity contracts are phrased in.

:func:`encode_stamped` writes exactly those canonical bytes, with the
stamp spliced in as the object's last member, so one encoding serves
both the hash and the file.  A writer that re-encodes the same list
items every save can hand them over pre-encoded as an
:class:`EncodedList`.
"""

import hashlib
import json

#: The payload key the checksum is stored under.
CHECKSUM_KEY = "sha256"

_SEPARATORS = (",", ":")


class IntegrityError(ValueError):
    """A payload failed checksum verification (torn or corrupted)."""


def checksum_payload(payload):
    """Hex SHA-256 over the canonical JSON form of ``payload``.

    Any ``CHECKSUM_KEY`` entry already present is excluded, so
    stamping is idempotent and verification can recompute from the
    stamped dict directly.
    """
    return hashlib.sha256(_canonical_body(payload)).hexdigest()


class EncodedList(list):
    """A list that carries the canonical JSON text of each item.

    ``fragments[i]`` must be ``canonical_json(self[i])``; build the
    two together and mutate neither afterwards.  It is ``==`` the
    plain list of its items and ``json`` encodes it as one, so it can
    stand in for that list anywhere; :func:`canonical_json` joins the
    fragments instead of encoding the items again.
    """

    def __init__(self, items, fragments):
        """``items`` and their canonical ``fragments``, in step."""
        super().__init__(items)
        self.fragments = list(fragments)
        if len(self.fragments) != len(self):
            raise ValueError(
                f"{len(self)} items but {len(self.fragments)} fragments"
            )


def canonical_json(value):
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``.

    The same text, except that an :class:`EncodedList` reached
    through string-keyed dicts contributes its stored fragments.
    """
    if isinstance(value, EncodedList):
        return "[" + ",".join(value.fragments) + "]"
    if (
        isinstance(value, dict)
        and all(type(key) is str for key in value)
        and any(
            isinstance(item, (dict, EncodedList)) for item in value.values()
        )
    ):
        return "{" + ",".join(
            json.dumps(key) + ":" + canonical_json(value[key])
            for key in sorted(value)
        ) + "}"
    return json.dumps(value, sort_keys=True, separators=_SEPARATORS)


def _canonical_body(payload):
    """UTF-8 canonical JSON of ``payload`` less its stamp: the hashed bytes."""
    body = {
        key: value for key, value in payload.items()
        if key != CHECKSUM_KEY
    }
    return canonical_json(body).encode("utf-8")


def stamp_checksum(payload):
    """Return a copy of ``payload`` carrying its own checksum."""
    stamped = dict(payload)
    stamped[CHECKSUM_KEY] = checksum_payload(stamped)
    return stamped


def verify_checksum(payload, source="payload"):
    """Verify a stamped payload; returns it with the stamp removed.

    Raises :class:`IntegrityError` when the stamp is missing or the
    recorded checksum does not match the recomputed one — a damaged
    stamp key must not let a payload through unverified.
    """
    if CHECKSUM_KEY not in payload:
        raise IntegrityError(
            f"{source} carries no {CHECKSUM_KEY!r} stamp; the file is "
            f"torn or corrupted"
        )
    recorded = payload[CHECKSUM_KEY]
    actual = checksum_payload(payload)
    if recorded != actual:
        raise IntegrityError(
            f"{source} failed checksum verification (recorded "
            f"{recorded!r}, actual {actual!r}); the file is torn or "
            f"corrupted"
        )
    body = dict(payload)
    del body[CHECKSUM_KEY]
    return body


def encode_stamped(payload):
    """The stamped payload as UTF-8 JSON bytes, ready to write.

    One canonical encoding of ``payload`` less any stamp it holds is
    hashed, then written with the stamp appended as the last member:
    the file is the hashed bytes with ``,"sha256":"<hex>"`` spliced in
    before the closing brace.
    """
    body = _canonical_body(payload)
    stamp = b'"%s":"%s"}' % (
        CHECKSUM_KEY.encode("ascii"),
        hashlib.sha256(body).hexdigest().encode("ascii"),
    )
    return body[:-1] + (stamp if body == b"{}" else b"," + stamp)


def decode_stamped(data, source="payload"):
    """Parse UTF-8 JSON bytes and verify their checksum stamp.

    Raises :class:`IntegrityError` for undecodable bytes as well as
    stamp mismatches — to a reader, a torn JSON file and a
    bit-flipped one are the same event: the copy is unusable.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise IntegrityError(
            f"{source} is not decodable JSON ({exc}); the file is "
            f"torn or corrupted"
        ) from None
    if not isinstance(payload, dict):
        raise IntegrityError(
            f"{source} decodes to {type(payload).__name__}, not an "
            f"object; the file is torn or corrupted"
        )
    return verify_checksum(payload, source=source)
