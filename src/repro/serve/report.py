"""Overload accounting: the serving layer's health report.

Like the transport layer's ``ReliabilityReport`` and the compute pool's
``RunHealth``, it renders as ``(label, value)`` rows (``as_rows``) under
the command's output.  Where those count faults survived, this one
proves the **no-silent-loss invariant**: every request submitted to the
service is accounted for exactly once as completed, rejected,
deadline-expired, or dead-lettered — :meth:`OverloadReport.accounted` is
the machine-checkable form, asserted by the property suite for every
chaos seed.

The report also records *how* the service bent instead of breaking:
degraded (browned-out) answers, the maximum brownout level reached, and
every circuit-breaker transition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.breaker import BreakerTransition


@dataclass(slots=True)
class OverloadReport:
    """Counters for one ``repro serve`` run.

    Attributes:
        submitted: requests offered to the service (file requests plus
            storm clones plus malformed lines).
        admitted: requests that passed admission control.
        completed: requests answered with a payload (fresh or coarse).
        shed: requests rejected at admission (``shed_queue_full`` +
            ``shed_rate_limited``).
        expired: requests that ran out of deadline budget.
        dead_lettered: poison, malformed, or handler-failing requests.
        degraded: completed requests answered from coarse summaries.
        max_brownout_level: highest brownout level the ladder reached.
        breaker_opens: times the artifact breaker tripped open.
        breaker_transitions: full breaker state-change history.
        artifact_loads: paid artifact-store loads during the run — with
            the generation cache healthy this stays far below the
            request count (one load per artifact, amortized).
    """

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    shed: int = 0
    shed_queue_full: int = 0
    shed_rate_limited: int = 0
    expired: int = 0
    dead_lettered: int = 0
    degraded: int = 0
    max_brownout_level: int = 0
    breaker_opens: int = 0
    artifact_loads: int = 0
    breaker_transitions: list[BreakerTransition] = field(default_factory=list)

    @property
    def accounted(self) -> bool:
        """The no-silent-loss invariant: every request counted once."""
        return (
            self.completed + self.shed + self.expired + self.dead_lettered
            == self.submitted
        )

    def as_rows(self) -> list[tuple[str, str]]:
        """(label, value) rows, printed as ``label: value`` lines."""
        return [
            ("requests submitted", str(self.submitted)),
            ("requests admitted", str(self.admitted)),
            ("requests completed", str(self.completed)),
            (
                "requests shed",
                f"{self.shed} (queue_full={self.shed_queue_full}, "
                f"rate_limited={self.shed_rate_limited})",
            ),
            ("requests expired", str(self.expired)),
            ("requests dead-lettered", str(self.dead_lettered)),
            ("degraded answers", str(self.degraded)),
            ("max brownout level", str(self.max_brownout_level)),
            ("breaker opens", str(self.breaker_opens)),
            ("artifact loads", str(self.artifact_loads)),
            ("accounting", "exact" if self.accounted else "BROKEN"),
        ]
