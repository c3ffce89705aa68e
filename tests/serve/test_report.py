"""OverloadReport: the serving layer's accounting report."""

from __future__ import annotations

from repro.serve.breaker import BreakerTransition
from repro.serve.report import OverloadReport


def sample_report() -> OverloadReport:
    return OverloadReport(
        submitted=10,
        admitted=8,
        completed=6,
        shed=2,
        shed_queue_full=1,
        shed_rate_limited=1,
        expired=1,
        dead_lettered=1,
        degraded=3,
        max_brownout_level=2,
        breaker_opens=1,
        breaker_transitions=[
            BreakerTransition(
                at=1.0, from_state="closed", to_state="open",
                reason="failure_threshold",
            )
        ],
    )


class TestOverloadReport:
    def test_accounting_exact(self):
        assert sample_report().accounted
        assert OverloadReport().accounted  # vacuously: 0 == 0

    def test_accounting_detects_loss(self):
        report = sample_report()
        report.completed -= 1  # one response silently vanished
        assert not report.accounted

    def test_rows_and_lines_agree(self):
        report = sample_report()
        rows = report.as_rows()
        assert ("requests submitted", "10") in rows
        assert ("accounting", "exact") in rows
        assert all(
            isinstance(label, str) and isinstance(value, str)
            for label, value in rows
        )

    def test_broken_accounting_is_loud(self):
        report = sample_report()
        report.completed -= 1
        assert ("accounting", "BROKEN") in report.as_rows()
