"""Payload integrity: checksum stamping, verification, torn bytes."""

import json

import pytest

from repro.store.integrity import (
    CHECKSUM_KEY,
    IntegrityError,
    checksum_payload,
    decode_stamped,
    encode_stamped,
    stamp_checksum,
    verify_checksum,
)

PAYLOAD = {"offset": 12, "nested": {"a": [1, 2, 3]}, "version": 3}


class TestChecksum:
    def test_key_order_insensitive(self):
        reordered = dict(reversed(list(PAYLOAD.items())))
        assert checksum_payload(PAYLOAD) == checksum_payload(reordered)

    def test_value_sensitive(self):
        changed = dict(PAYLOAD, offset=13)
        assert checksum_payload(PAYLOAD) != checksum_payload(changed)

    def test_stamping_is_idempotent(self):
        stamped = stamp_checksum(PAYLOAD)
        assert stamp_checksum(stamped)[CHECKSUM_KEY] == (
            stamped[CHECKSUM_KEY]
        )

    def test_verify_strips_the_stamp(self):
        assert verify_checksum(stamp_checksum(PAYLOAD)) == PAYLOAD

    def test_unstamped_payload_rejected(self):
        # A missing stamp is damage, not an older format.
        with pytest.raises(IntegrityError, match="no 'sha256' stamp"):
            verify_checksum(dict(PAYLOAD), source="unit payload")

    def test_mismatch_raises(self):
        stamped = stamp_checksum(PAYLOAD)
        stamped["offset"] = 99
        with pytest.raises(IntegrityError, match="checksum"):
            verify_checksum(stamped, source="unit payload")


class TestEncodedRoundTrip:
    def test_round_trip(self):
        assert decode_stamped(encode_stamped(PAYLOAD)) == PAYLOAD

    def test_any_single_bit_flip_detected(self):
        data = bytearray(encode_stamped(PAYLOAD))
        for position in range(0, len(data), 7):
            torn = bytes(
                data[:position]
            ) + bytes([data[position] ^ 0xFF]) + bytes(data[position + 1:])
            with pytest.raises(IntegrityError):
                decode_stamped(torn)

    def test_truncated_bytes_are_integrity_errors(self):
        data = encode_stamped(PAYLOAD)
        with pytest.raises(IntegrityError, match="torn or corrupted"):
            decode_stamped(data[: len(data) // 2])

    def test_non_object_json_rejected(self):
        with pytest.raises(IntegrityError, match="not an"):
            decode_stamped(json.dumps([1, 2]).encode("utf-8"))
