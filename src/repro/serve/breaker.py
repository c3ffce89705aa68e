"""Circuit breaker around the artifact-loading seam.

A slow or failing dependency is more dangerous than a dead one: every
request that touches it burns its whole deadline discovering the outage
again.  The breaker converts repeated load failures into *fail-fast*
behaviour with a deterministic recovery schedule:

* **closed** — loads pass through; consecutive failures are counted and
  ``failure_threshold`` of them trip the breaker open.
* **open** — loads are refused instantly (:meth:`CircuitBreaker.allow`
  returns ``False``), so a request behind an open breaker spends
  essentially none of its deadline on the dead dependency and can fall
  back to a coarse summary instead.  A probe time is scheduled at
  ``cooldown_seconds`` plus deterministic seeded jitter.
* **half-open** — once the probe time passes, loads are admitted again
  as probes; ``probe_successes`` consecutive successes close the
  breaker, any failure re-opens it (with the next seeded probe delay).

Every transition is recorded as a :class:`BreakerTransition` for the
:class:`repro.serve.report.OverloadReport`.  All timing is the service's
simulated clock; the jitter RNG is seeded from the policy, so the entire
open/probe/close schedule replays byte-identically for a fixed seed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.errors import ConfigError, ReproError


class BreakerOpenError(ReproError):
    """An artifact load was refused because the breaker is open."""


class BreakerState(enum.Enum):
    """The classic three-state breaker automaton."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True, slots=True)
class BreakerPolicy:
    """Trip, cooldown, and probe policy for one breaker.

    Attributes:
        failure_threshold: consecutive closed-state failures that trip
            the breaker open.
        cooldown_seconds: base delay before an open breaker schedules a
            half-open probe.
        probe_successes: consecutive half-open successes required to
            close.
        probe_jitter: max extra cooldown as a fraction of the base,
            drawn deterministically from ``seed``; 0 disables jitter.
        seed: RNG seed for the probe-jitter schedule.
    """

    failure_threshold: int = 3
    cooldown_seconds: float = 5.0
    probe_successes: int = 2
    probe_jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_seconds <= 0.0:
            raise ConfigError(
                f"cooldown_seconds must be > 0, got {self.cooldown_seconds}"
            )
        if self.probe_successes < 1:
            raise ConfigError(
                f"probe_successes must be >= 1, got {self.probe_successes}"
            )
        if not 0.0 <= self.probe_jitter < 1.0:
            raise ConfigError(
                f"probe_jitter must be in [0, 1), got {self.probe_jitter}"
            )


@dataclass(frozen=True, slots=True)
class BreakerTransition:
    """One recorded state change.

    Attributes:
        at: simulated time of the transition.
        from_state / to_state: :class:`BreakerState` values.
        reason: what forced the change (e.g. ``"failure_threshold"``).
    """

    at: float
    from_state: str
    to_state: str
    reason: str


class CircuitBreaker:
    """Deterministic closed/open/half-open breaker on a simulated clock.

    Args:
        policy: trip/cooldown/probe configuration.
    """

    def __init__(self, policy: BreakerPolicy | None = None):
        self.policy = policy or BreakerPolicy()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._probe_wins = 0
        self._probe_at = 0.0
        # Deterministic jitter schedule derived from the policy seed.
        self._rng = random.Random(self.policy.seed)
        self.transitions: list[BreakerTransition] = []

    @property
    def state(self) -> BreakerState:
        return self._state

    @property
    def opens(self) -> int:
        """How many times the breaker has tripped open."""
        return sum(
            1
            for transition in self.transitions
            if transition.to_state == BreakerState.OPEN.value
        )

    def allow(self, now: float) -> bool:
        """Whether a load may pass right now (open → instant refusal)."""
        if self._state is BreakerState.OPEN and now >= self._probe_at:
            self._shift(now, BreakerState.HALF_OPEN, "cooldown_elapsed")
            self._probe_wins = 0
        return self._state is not BreakerState.OPEN

    def record_success(self, now: float) -> None:
        """A load behind the breaker succeeded."""
        if self._state is BreakerState.HALF_OPEN:
            self._probe_wins += 1
            if self._probe_wins >= self.policy.probe_successes:
                self._shift(now, BreakerState.CLOSED, "probe_successes")
                self._failures = 0
        else:
            self._failures = 0

    def record_failure(self, now: float) -> None:
        """A load behind the breaker failed."""
        if self._state is BreakerState.HALF_OPEN:
            self._open(now, "probe_failure")
            return
        self._failures += 1
        if (
            self._state is BreakerState.CLOSED
            and self._failures >= self.policy.failure_threshold
        ):
            self._open(now, "failure_threshold")

    # -- internals ------------------------------------------------------

    def _open(self, now: float, reason: str) -> None:
        self._shift(now, BreakerState.OPEN, reason)
        self._failures = 0
        jitter = self.policy.probe_jitter * self._rng.random()
        self._probe_at = now + self.policy.cooldown_seconds * (1.0 + jitter)

    def _shift(self, now: float, to_state: BreakerState, reason: str) -> None:
        self.transitions.append(
            BreakerTransition(
                at=now,
                from_state=self._state.value,
                to_state=to_state.value,
                reason=reason,
            )
        )
        self._state = to_state
