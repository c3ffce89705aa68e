"""Circuit breaker: trip, fail fast, probe, recover — deterministically."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serve.breaker import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
)

FAST_TRIP = BreakerPolicy(
    failure_threshold=2, cooldown_seconds=1.0, probe_successes=2,
    probe_jitter=0.0,
)


def tripped(policy: BreakerPolicy = FAST_TRIP) -> CircuitBreaker:
    breaker = CircuitBreaker(policy)
    for _ in range(policy.failure_threshold):
        breaker.record_failure(0.0)
    assert breaker.state is BreakerState.OPEN
    return breaker


class TestBreakerPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"cooldown_seconds": 0.0},
            {"probe_successes": 0},
            {"probe_jitter": -0.1},
            {"probe_jitter": 1.0},
        ],
    )
    def test_rejects_degenerate_policy(self, kwargs):
        with pytest.raises(ConfigError):
            BreakerPolicy(**kwargs)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker(FAST_TRIP)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(FAST_TRIP)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.1)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(FAST_TRIP)
        breaker.record_failure(0.0)
        breaker.record_success(0.1)
        breaker.record_failure(0.2)
        assert breaker.state is BreakerState.CLOSED

    def test_open_refuses_instantly_until_cooldown(self):
        breaker = tripped()
        assert not breaker.allow(0.5)
        assert breaker.state is BreakerState.OPEN

    def test_cooldown_elapse_enters_half_open(self):
        breaker = tripped()
        assert breaker.allow(1.0)  # cooldown_seconds=1.0, jitter 0
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_successes_close(self):
        breaker = tripped()
        assert breaker.allow(1.0)
        breaker.record_success(1.1)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(1.2)
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens(self):
        breaker = tripped()
        assert breaker.allow(1.0)
        breaker.record_failure(1.1)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2

    def test_transitions_recorded_in_order(self):
        breaker = tripped()
        breaker.allow(1.0)
        breaker.record_success(1.1)
        breaker.record_success(1.2)
        assert [t.to_state for t in breaker.transitions] == [
            "open", "half_open", "closed",
        ]
        assert [t.reason for t in breaker.transitions] == [
            "failure_threshold", "cooldown_elapsed", "probe_successes",
        ]

    def test_jittered_probe_schedule_is_seed_deterministic(self):
        policy = BreakerPolicy(
            failure_threshold=1, cooldown_seconds=1.0, probe_jitter=0.5,
            seed=9,
        )
        probes = []
        for _ in range(2):
            breaker = CircuitBreaker(policy)
            breaker.record_failure(0.0)
            # Find the first time the breaker re-admits, to 1ms grid.
            probes.append(
                next(
                    t / 1000.0
                    for t in range(5000)
                    if breaker.allow(t / 1000.0)
                )
            )
        assert probes[0] == probes[1]
        assert 1.0 <= probes[0] <= 1.5
