"""The typed error taxonomy: stable codes, wire round-trips, retry flags."""

import pytest

from repro.resilience.errors import (
    Cancelled,
    DeadlineExceeded,
    DurabilityError,
    ResilienceError,
    ResourceExhausted,
    TAXONOMY,
    error_from_code,
)

#: The full wire contract: class -> code.  Adding or renaming a code is a
#: protocol change and must be made here deliberately.
EXPECTED_CODES = {
    DeadlineExceeded: "deadline_exceeded",
    ResourceExhausted: "resource_exhausted",
    Cancelled: "cancelled",
    DurabilityError: "durability_error",
}


class TestCodes:
    def test_every_taxonomy_class_has_its_pinned_code(self):
        assert {cls: cls.code for cls in EXPECTED_CODES} == EXPECTED_CODES

    def test_taxonomy_map_is_exactly_the_pinned_classes(self):
        assert set(TAXONOMY.values()) == set(EXPECTED_CODES)
        assert set(TAXONOMY.keys()) == set(EXPECTED_CODES.values())

    def test_every_class_is_a_resilience_error(self):
        for cls in EXPECTED_CODES:
            assert issubclass(cls, ResilienceError)

    def test_only_resource_exhaustion_is_retryable_by_class(self):
        for cls in EXPECTED_CODES:
            assert cls.retryable is (cls is ResourceExhausted)


class TestWire:
    @pytest.mark.parametrize("cls", sorted(EXPECTED_CODES, key=lambda c: c.code))
    def test_round_trip_preserves_class_message_reason_details(self, cls):
        error = cls("it broke", reason="why", attempt=3)
        wire = error.to_wire()
        assert wire["code"] == cls.code
        assert wire["message"] == "it broke"
        assert wire["reason"] == "why"
        assert wire["attempt"] == 3

        rebuilt = error_from_code(
            wire["code"], wire["message"], reason=wire["reason"], attempt=wire["attempt"]
        )
        assert type(rebuilt) is cls
        assert str(rebuilt) == "it broke"
        assert rebuilt.reason == "why"
        assert rebuilt.details == {"attempt": 3}

    def test_reason_and_details_are_optional_on_the_wire(self):
        wire = Cancelled("gone").to_wire()
        assert wire == {"code": "cancelled", "message": "gone"}

    def test_empty_message_defaults_to_the_code(self):
        assert str(DeadlineExceeded()) == "deadline_exceeded"

    def test_unknown_code_survives_one_more_hop(self):
        rebuilt = error_from_code("weird_future_code", "hello")
        assert type(rebuilt) is ResilienceError
        assert rebuilt.details["origin_code"] == "weird_future_code"
        assert rebuilt.to_wire()["origin_code"] == "weird_future_code"
