"""Tests for the resilient stream client: backoff, dedup, dead-letter."""

import pytest

from repro.config import ResiliencePolicy
from repro.errors import ConfigError
from repro.twitter.faults import FaultPlan, FaultySource
from repro.twitter.models import Tweet, UserProfile
from repro.twitter.resilient import (
    ResilientStream,
    ensure_compatible,
    http_backoff,
    network_backoff,
    rate_limit_backoff,
)


def tweets(n: int) -> list[Tweet]:
    return [
        Tweet(
            tweet_id=i,
            user=UserProfile(user_id=i % 5, screen_name="u"),
            text=f"kidney donor update {i}",
        )
        for i in range(n)
    ]


NO_JITTER = ResiliencePolicy(jitter=0.0)


class TestBackoffSchedules:
    """The documented Streaming API schedule, tested without wall-clock."""

    @pytest.mark.parametrize("attempt,expected", [
        (1, 0.25), (2, 0.50), (3, 0.75), (64, 16.0), (200, 16.0),
    ])
    def test_network_is_linear_capped(self, attempt, expected):
        assert network_backoff(NO_JITTER, attempt) == pytest.approx(expected)

    @pytest.mark.parametrize("attempt,expected", [
        (1, 5.0), (2, 10.0), (3, 20.0), (7, 320.0), (20, 320.0),
    ])
    def test_http_is_exponential_capped(self, attempt, expected):
        assert http_backoff(NO_JITTER, attempt) == pytest.approx(expected)

    @pytest.mark.parametrize("attempt,expected", [
        (1, 60.0), (2, 120.0), (3, 240.0), (5, 960.0), (20, 960.0),
    ])
    def test_rate_limit_starts_at_a_minute(self, attempt, expected):
        assert rate_limit_backoff(NO_JITTER, attempt) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "schedule", [network_backoff, http_backoff, rate_limit_backoff]
    )
    def test_attempt_must_be_positive(self, schedule):
        with pytest.raises(ConfigError):
            schedule(NO_JITTER, 0)

    def test_schedules_are_pure(self):
        assert network_backoff(NO_JITTER, 3) == network_backoff(NO_JITTER, 3)

    SCHEDULES_AND_CAPS = [
        (network_backoff, "network_backoff_cap"),
        (http_backoff, "http_backoff_cap"),
        (rate_limit_backoff, "rate_limit_backoff_cap"),
    ]

    @pytest.mark.parametrize("schedule,cap_field", SCHEDULES_AND_CAPS)
    def test_monotone_non_decreasing_in_attempt(self, schedule, cap_field):
        delays = [schedule(NO_JITTER, attempt) for attempt in range(1, 200)]
        assert all(a <= b for a, b in zip(delays, delays[1:]))

    @pytest.mark.parametrize("schedule,cap_field", SCHEDULES_AND_CAPS)
    def test_capped_and_cap_is_reached(self, schedule, cap_field):
        cap = getattr(NO_JITTER, cap_field)
        delays = [schedule(NO_JITTER, attempt) for attempt in range(1, 200)]
        assert all(delay <= cap for delay in delays)
        assert delays[-1] == cap  # the schedule saturates, not diverges

    @pytest.mark.parametrize("schedule,cap_field", SCHEDULES_AND_CAPS)
    def test_deterministic_for_a_fixed_policy(self, schedule, cap_field):
        policy_a = ResiliencePolicy(jitter=0.0, seed=1)
        policy_b = ResiliencePolicy(jitter=0.0, seed=1)
        assert [schedule(policy_a, n) for n in range(1, 100)] == [
            schedule(policy_b, n) for n in range(1, 100)
        ]

    @pytest.mark.parametrize("schedule,cap_field", SCHEDULES_AND_CAPS)
    def test_custom_policy_respects_its_own_cap(self, schedule, cap_field):
        policy = ResiliencePolicy(
            network_backoff_cap=2.0,
            http_backoff_cap=40.0,
            rate_limit_backoff_cap=120.0,
            jitter=0.0,
        )
        cap = getattr(policy, cap_field)
        assert schedule(policy, 500) == cap


class TestCompatibility:
    def test_default_policy_covers_chaos_plan(self):
        ensure_compatible(ResiliencePolicy(), FaultPlan.chaos())

    def test_small_reorder_window_rejected(self):
        plan = FaultPlan(backfill_depth=8, reorder_span=4)
        with pytest.raises(ConfigError, match="reorder_window"):
            ensure_compatible(ResiliencePolicy(reorder_window=5), plan)

    def test_small_dedup_window_rejected(self):
        plan = FaultPlan(backfill_depth=8, reorder_span=4)
        with pytest.raises(ConfigError, match="dedup_window"):
            ensure_compatible(
                ResiliencePolicy(dedup_window=8, reorder_window=64), plan
            )


class TestFaultFreePassthrough:
    def test_yields_source_verbatim(self):
        items = tweets(25)
        stream = ResilientStream(FaultySource(iter(items), FaultPlan.none()))
        assert list(stream) == items

    def test_report_counts_single_clean_connection(self):
        stream = ResilientStream(FaultySource(iter(tweets(10)), FaultPlan.none()))
        list(stream)
        assert stream.report.connects == 1
        assert stream.report.delivered == 10
        assert stream.report.total_retries == 0
        assert stream.report.backoff_seconds == 0.0


class TestRecovery:
    def test_dedups_backfill_duplicates(self):
        plan = FaultPlan(seed=4, disconnect_rate=0.2)
        stream = ResilientStream(FaultySource(iter(tweets(80)), plan))
        delivered = [t.tweet_id for t in stream]
        assert delivered == list(range(80))
        assert stream.report.duplicates_suppressed > 0

    def test_stall_detection_tears_down_connection(self):
        plan = FaultPlan(seed=6, stall_rate=0.05, stall_ticks=12)
        policy = ResiliencePolicy(stall_timeout_ticks=6)
        stream = ResilientStream(FaultySource(iter(tweets(120)), plan), policy)
        assert [t.tweet_id for t in stream] == list(range(120))
        assert stream.report.stalls_detected > 0

    def test_short_keepalive_runs_are_benign(self):
        plan = FaultPlan(seed=6, keepalive_rate=0.3)
        policy = ResiliencePolicy(stall_timeout_ticks=50)
        stream = ResilientStream(FaultySource(iter(tweets(60)), plan), policy)
        list(stream)
        assert stream.report.stalls_detected == 0

    def test_dead_letters_carry_reasons_not_crashes(self):
        plan = FaultPlan(seed=8, garbage_rate=0.1)
        stream = ResilientStream(FaultySource(iter(tweets(100)), plan))
        assert [t.tweet_id for t in stream] == list(range(100))
        assert stream.report.dead_lettered > 0
        assert stream.report.dead_lettered == len(stream.dead_letters)
        assert {d.reason for d in stream.dead_letters} <= {
            "invalid-json", "malformed-record"
        }

    def test_truncated_frames_dead_lettered_and_recovered(self):
        plan = FaultPlan(seed=9, truncate_rate=0.1, backfill_depth=6)
        stream = ResilientStream(FaultySource(iter(tweets(100)), plan))
        assert [t.tweet_id for t in stream] == list(range(100))
        assert any(d.reason == "invalid-json" for d in stream.dead_letters)


class TestSimulatedBackoff:
    def test_sleep_receives_every_computed_delay(self):
        plan = FaultPlan(seed=2, disconnect_rate=0.1,
                         rate_limit_rate=0.3, http_error_rate=0.3)
        delays: list[float] = []
        stream = ResilientStream(
            FaultySource(iter(tweets(120)), plan),
            ResiliencePolicy(),
            sleep=delays.append,
        )
        list(stream)
        assert delays
        assert sum(delays) == pytest.approx(stream.report.backoff_seconds)

    def test_jitter_is_deterministic_per_seed(self):
        def total(seed: int) -> float:
            plan = FaultPlan(seed=1, disconnect_rate=0.1,
                             rate_limit_rate=0.3)
            stream = ResilientStream(
                FaultySource(iter(tweets(100)), plan),
                ResiliencePolicy(seed=seed),
            )
            list(stream)
            return stream.report.backoff_seconds

        assert total(5) == total(5)

    def test_no_jitter_gives_exact_schedule(self):
        plan = FaultPlan(seed=0, rate_limit_rate=1.0, max_connect_failures=2)
        stream = ResilientStream(
            FaultySource(iter(tweets(5)), plan), NO_JITTER
        )
        list(stream)
        # Exactly two 420 rejections before the forced success: 60 + 120.
        assert stream.report.rejections_420 == 2
        assert stream.report.backoff_seconds == pytest.approx(180.0)

    def test_consecutive_counters_reset_on_success(self):
        # After a successful connect, the next HTTP failure restarts the
        # exponential schedule from its initial delay.
        plan = FaultPlan(seed=7, rate_limit_rate=0.4, max_connect_failures=1)
        stream = ResilientStream(
            FaultySource(iter(tweets(60)), plan), NO_JITTER
        )
        list(stream)
        if stream.report.rejections_420 > 1:
            # Every retry cost exactly the initial delay (cap = 1 failure).
            assert stream.report.backoff_seconds == pytest.approx(
                60.0 * stream.report.rejections_420
            )


class TestReportRendering:
    def test_as_rows_and_dict(self):
        stream = ResilientStream(FaultySource(iter(tweets(5)), FaultPlan.none()))
        list(stream)
        rows = dict(stream.report.as_rows())
        assert rows["Records delivered"] == "5"
        data = stream.report.to_dict()
        assert data["delivered"] == 5
        assert data["dead_letters"] == []

    def test_summary_lines_render_as_rows(self):
        stream = ResilientStream(FaultySource(iter(tweets(5)), FaultPlan.none()))
        list(stream)
        rows = stream.report.as_rows()
        assert ("Records delivered", "5") in rows
        assert all(
            isinstance(label, str) and isinstance(value, str)
            for label, value in rows
        )

    def test_to_dict_round_trips_with_dead_letters(self):
        from repro.twitter.resilient import ReliabilityReport

        plan = FaultPlan(seed=8, garbage_rate=0.1, truncate_rate=0.05)
        stream = ResilientStream(FaultySource(iter(tweets(100)), plan))
        list(stream)
        assert stream.report.dead_lettered > 0
        restored = ReliabilityReport.from_dict(stream.report.to_dict())
        assert restored == stream.report

    def test_to_dict_is_the_only_serialization_surface(self):
        """Regression: the old ``as_dict`` partial form is gone — one
        round-trippable shape, counters and dead letters together."""
        from dataclasses import fields

        from repro.twitter.resilient import ReliabilityReport

        report = ReliabilityReport()
        assert not hasattr(report, "as_dict")
        data = report.to_dict()
        assert set(data) == {spec.name for spec in fields(ReliabilityReport)}
        assert ReliabilityReport.from_dict(data) == report


class TestDeadLetterReplay:
    def test_replayed_dead_letters_reconcile_with_the_report(self):
        """Every frame the source corrupted is accounted for: the sum of
        injected garbage and truncated frames equals the report's
        dead-letter count, each dead letter survives a serialization
        round trip, and replaying the *repairable* ones recovers records
        the stream itself already delivered (nothing was lost twice)."""
        import json as json_module

        from repro.twitter.models import Tweet
        from repro.twitter.resilient import DeadLetter

        plan = FaultPlan(seed=13, garbage_rate=0.08, truncate_rate=0.08)
        source = FaultySource(iter(tweets(200)), plan)
        stream = ResilientStream(source)
        delivered = {t.tweet_id for t in stream}
        report = stream.report

        assert report.dead_lettered == len(report.dead_letters)
        assert report.dead_lettered == (
            source.injected.garbage_frames + source.injected.truncated_frames
        )
        assert report.dead_lettered > 0

        # Dead letters survive persistence (the replay queue's format).
        replayed = [
            DeadLetter.from_dict(letter.to_dict())
            for letter in report.dead_letters
        ]
        assert replayed == report.dead_letters

        # Truncated frames are prefixes of real payloads; the source
        # re-sent those tweets on reconnect (backfill), so every id a
        # repaired payload would contribute was already delivered —
        # replay reconciles, it must not discover new records.
        from repro.errors import SerializationError

        for letter in replayed:
            try:
                data = json_module.loads(letter.payload)
            except json_module.JSONDecodeError:
                assert letter.reason == "invalid-json"
                continue
            try:
                tweet = Tweet.from_dict(data)
            except SerializationError:
                assert letter.reason == "malformed-record"
                continue
            assert tweet.tweet_id in delivered


class TestDeadLetterPersistence:
    def letters(self):
        from repro.twitter.resilient import DeadLetter

        return [
            DeadLetter(payload="{torn", reason="invalid-json", sequence=3),
            DeadLetter(payload='{"ok": true}', reason="malformed-record",
                       sequence=9),
        ]

    def test_round_trip_with_sidecar(self, tmp_path):
        from repro.storage.manifest import verify_file
        from repro.twitter.resilient import (
            read_dead_letters_jsonl,
            write_dead_letters_jsonl,
        )

        path = tmp_path / "dead.jsonl"
        assert write_dead_letters_jsonl(self.letters(), path) == 2
        assert list(read_dead_letters_jsonl(path)) == self.letters()
        assert verify_file(path).ok

    def test_crash_mid_write_preserves_old_queue(self, tmp_path):
        from repro.faults.storage import SimulatedCrash, StorageFaultPlan
        from repro.storage.fs import FaultyFS
        from repro.twitter.resilient import write_dead_letters_jsonl

        path = tmp_path / "dead.jsonl"
        write_dead_letters_jsonl(self.letters(), path)
        old = path.read_bytes()
        fs = FaultyFS(StorageFaultPlan(crash_at=2))
        with pytest.raises(SimulatedCrash):
            write_dead_letters_jsonl(self.letters() * 10, path, fs=fs)
        assert path.read_bytes() == old

    def test_malformed_line_reports_position(self, tmp_path):
        from repro.errors import SerializationError
        from repro.storage.manifest import manifest_path
        from repro.twitter.resilient import (
            read_dead_letters_jsonl,
            write_dead_letters_jsonl,
        )

        path = tmp_path / "dead.jsonl"
        write_dead_letters_jsonl(self.letters(), path)
        manifest_path(path).unlink()
        with open(path, "a") as handle:
            handle.write('{"payload": "x"}\n')  # missing fields
        with pytest.raises(SerializationError, match=":3"):
            list(read_dead_letters_jsonl(path))
