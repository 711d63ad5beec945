"""Payload integrity: checksums over JSON state, torn-write detection.

Durable state (checkpoints, saved warehouses) can be corrupted by a
crash mid-write, a bad disk, or — in the chaos suite — a deliberately
flipped byte.  The defence is cheap and total: stamp every payload
with a SHA-256 over its canonical JSON form at write time, verify at
read time, and treat any mismatch as "this file does not exist in a
usable form" so callers can fall back to the previous good copy.

The checksum is computed over ``json.dumps(payload, sort_keys=True)``
with the checksum field itself excluded, so it is insensitive to key
order but sensitive to every value bit — exactly the equality the
repository's ``==`` bit-identity contracts are phrased in.
"""

import hashlib
import json

#: The payload key the checksum is stored under.
CHECKSUM_KEY = "sha256"


class IntegrityError(ValueError):
    """A payload failed checksum verification (torn or corrupted)."""


def checksum_payload(payload):
    """Hex SHA-256 over the canonical JSON form of ``payload``.

    Any ``CHECKSUM_KEY`` entry already present is excluded, so
    stamping is idempotent and verification can recompute from the
    stamped dict directly.
    """
    body = {
        key: value for key, value in payload.items()
        if key != CHECKSUM_KEY
    }
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


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
    """The stamped payload as UTF-8 JSON bytes, ready to write."""
    return json.dumps(stamp_checksum(payload)).encode("utf-8")


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
