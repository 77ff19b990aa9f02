"""RetryPolicy: the deterministic backoff schedule and its validation."""

import pytest

from repro.errors import FaultConfigError
from repro.faults import RetryPolicy


class TestBackoffSchedule:
    def test_default_doubles_from_one_ms_up_to_the_cap(self):
        policy = RetryPolicy()
        waits = [policy.backoff_ms(n) for n in range(1, 7)]
        assert waits == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_multiplier_and_cap_shape_the_schedule(self):
        policy = RetryPolicy(base_backoff_ms=0.5, multiplier=3.0, max_backoff_ms=10.0)
        assert [policy.backoff_ms(n) for n in range(1, 5)] == [0.5, 1.5, 4.5, 10.0]

    @pytest.mark.parametrize("failure_number", [0, -1])
    def test_failure_numbers_are_one_based(self, failure_number):
        with pytest.raises(FaultConfigError, match="1-based"):
            RetryPolicy().backoff_ms(failure_number)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_attempts": 0}, "max_attempts"),
            ({"base_backoff_ms": -1.0}, "milliseconds"),
            ({"max_backoff_ms": -1.0}, "milliseconds"),
            ({"multiplier": 0.5}, "multiplier"),
        ],
        ids=["max_attempts", "base_backoff", "max_backoff", "multiplier"],
    )
    def test_invalid_policy_rejected(self, kwargs, message):
        with pytest.raises(FaultConfigError, match=message):
            RetryPolicy(**kwargs)

    def test_one_attempt_is_allowed(self):
        assert RetryPolicy(max_attempts=1).max_attempts == 1
