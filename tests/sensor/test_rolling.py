"""Tests for the rolling awareness sensor."""

from datetime import datetime, timedelta, timezone

import pytest

from repro.config import RelativeRiskConfig
from repro.errors import ConfigError
from repro.organs import Organ
from repro.sensor.rolling import RollingAwarenessSensor
from repro.twitter.models import Tweet, UserProfile


def tweet(text: str, location: str, minute: int, user_id: int = 1,
          tweet_id: int = 0) -> Tweet:
    return Tweet(
        tweet_id=tweet_id,
        user=UserProfile(user_id=user_id, screen_name=f"u{user_id}",
                         location=location),
        text=text,
        created_at=datetime(2015, 6, 1, 12, tzinfo=timezone.utc)
        + timedelta(minutes=minute),
    )


@pytest.fixture()
def sensor() -> RollingAwarenessSensor:
    return RollingAwarenessSensor(
        window=timedelta(hours=1),
        relative_risk=RelativeRiskConfig(min_users=2),
    )


class TestObserve:
    def test_on_topic_us_tweet_retained(self, sensor):
        assert sensor.observe(tweet("kidney donor", "Wichita, KS", 0))
        assert sensor.window_size == 1

    def test_off_topic_rejected(self, sensor):
        assert not sensor.observe(tweet("nice sunset", "Wichita, KS", 0))
        assert sensor.window_size == 0

    def test_foreign_rejected(self, sensor):
        assert not sensor.observe(tweet("kidney donor", "London", 0))

    def test_unresolvable_rejected(self, sensor):
        assert not sensor.observe(tweet("kidney donor", "the moon", 0))

    def test_counters(self, sensor):
        sensor.observe(tweet("kidney donor", "Wichita, KS", 0))
        sensor.observe(tweet("sunset", "Wichita, KS", 1))
        assert sensor.seen == 2
        assert sensor.retained == 1


class TestEviction:
    def test_old_tweets_leave_window(self, sensor):
        sensor.observe(tweet("kidney donor", "Wichita, KS", 0, tweet_id=1))
        sensor.observe(tweet("liver donor", "Boston, MA", 30, tweet_id=2))
        assert sensor.window_size == 2
        # 90 minutes later, the first tweet (minute 0) is out of the
        # one-hour window.
        sensor.observe(tweet("heart donor", "Austin, TX", 90, tweet_id=3))
        assert sensor.window_size == 2

    def test_snapshot_reflects_window_only(self, sensor):
        sensor.observe(tweet("kidney donor", "Wichita, KS", 0, user_id=1))
        sensor.observe(tweet("heart donor", "Austin, TX", 120, user_id=2))
        snapshot = sensor.snapshot()
        assert snapshot is not None
        assert snapshot.n_tweets == 1
        assert snapshot.users_by_organ[Organ.HEART] == 1
        assert snapshot.users_by_organ[Organ.KIDNEY] == 0


class TestOutOfOrderArrivals:
    """Regression: late arrivals behind newer tweets must still expire.

    Before the frontier fix, ``_evict`` only scanned the buffer head, so
    an out-of-order old tweet appended *behind* a newer one was never
    evicted — it haunted every later snapshot.
    """

    def test_stale_arrival_rejected_and_counted(self, sensor):
        sensor.observe(tweet("kidney donor", "Wichita, KS", 120, tweet_id=1))
        # Arrives late and already outside the 1h window behind minute 120.
        assert not sensor.observe(
            tweet("liver donor", "Boston, MA", 0, tweet_id=2)
        )
        assert sensor.stale_dropped == 1
        assert sensor.window_size == 1
        # The stale tweet never reached the funnel.
        assert sensor.report.collected == sensor.retained == 1

    def test_late_in_window_arrival_admitted(self, sensor):
        sensor.observe(tweet("kidney donor", "Wichita, KS", 60, tweet_id=1))
        # Out of order but still inside the window: must be admitted.
        assert sensor.observe(
            tweet("liver donor", "Boston, MA", 30, tweet_id=2)
        )
        assert sensor.stale_dropped == 0
        assert sensor.window_size == 2

    def test_late_arrival_eventually_evicted(self, sensor):
        sensor.observe(tweet("kidney donor", "Wichita, KS", 60, tweet_id=1))
        sensor.observe(tweet("liver donor", "Boston, MA", 30, tweet_id=2))
        # Advance the frontier past the late arrival's expiry (minute 30
        # + 60-minute window = expired once the frontier passes 90) but
        # not past the minute-60 tweet's.
        sensor.observe(tweet("heart donor", "Austin, TX", 100, tweet_id=3))
        assert sensor.window_size == 2
        snapshot = sensor.snapshot()
        assert snapshot.users_by_organ[Organ.LIVER] == 0

    def test_out_of_order_replay_matches_in_order_replay(self):
        """The window must converge to the same content either way."""
        stream = [
            tweet("kidney donor", "Wichita, KS", minute, user_id=minute,
                  tweet_id=minute)
            for minute in range(10)
        ]
        shuffled = [stream[i] for i in (3, 0, 1, 5, 2, 4, 7, 6, 9, 8)]
        in_order = RollingAwarenessSensor(window=timedelta(hours=1))
        replayed = RollingAwarenessSensor(window=timedelta(hours=1))
        for item in stream:
            in_order.observe(item)
        for item in shuffled:
            replayed.observe(item)
        a, b = in_order.snapshot(), replayed.snapshot()
        assert a.n_tweets == b.n_tweets
        assert a.n_users == b.n_users
        assert a.users_by_organ == b.users_by_organ
        assert a.window_start == b.window_start
        assert a.window_end == b.window_end


class TestSnapshot:
    def test_empty_sensor_returns_none(self, sensor):
        assert sensor.snapshot() is None

    def test_snapshot_counts(self, sensor):
        sensor.observe(tweet("kidney donor", "Wichita, KS", 0, user_id=1, tweet_id=1))
        sensor.observe(tweet("kidney transplant", "Topeka, KS", 5, user_id=1, tweet_id=2))
        sensor.observe(tweet("heart donor", "Boston, MA", 6, user_id=2, tweet_id=3))
        snapshot = sensor.snapshot()
        assert snapshot.n_tweets == 3
        assert snapshot.n_users == 2
        assert snapshot.users_by_organ[Organ.KIDNEY] == 1

    def test_detects_emerging_excess(self):
        """A kidney burst in Kansas against a heart baseline elsewhere."""
        sensor = RollingAwarenessSensor(
            window=timedelta(hours=6),
            relative_risk=RelativeRiskConfig(min_users=5),
        )
        tweet_id = 0
        for user in range(30):
            sensor.observe(tweet(
                "heart donor awareness", "Austin, TX", user, 100 + user,
                tweet_id := tweet_id + 1,
            ))
            sensor.observe(tweet(
                "heart transplant news", "Boston, MA", user, 200 + user,
                tweet_id := tweet_id + 1,
            ))
        for user in range(5):  # baseline kidney chatter outside Kansas
            sensor.observe(tweet(
                "kidney donor registry", "Austin, TX", 35 + user,
                400 + user, tweet_id := tweet_id + 1,
            ))
        for user in range(15):
            sensor.observe(tweet(
                "kidney donor drive today", "Wichita, KS", 40 + user,
                300 + user, tweet_id := tweet_id + 1,
            ))
        snapshot = sensor.snapshot()
        assert "KS" in snapshot.emerging_states()
        assert Organ.KIDNEY in snapshot.highlights["KS"]


class TestRun:
    def test_periodic_emission(self, sensor):
        stream = [
            tweet("kidney donor", "Wichita, KS", i, user_id=i, tweet_id=i)
            for i in range(10)
        ]
        snapshots = list(sensor.run(stream, emit_every=3))
        # 3 full batches of 3 plus a final snapshot.
        assert len(snapshots) == 4
        assert snapshots[-1].n_tweets >= 1

    def test_invalid_emit_every(self, sensor):
        with pytest.raises(ConfigError):
            list(sensor.run([], emit_every=0))

    def test_run_on_synthetic_world(self, small_world):
        sensor = RollingAwarenessSensor(window=timedelta(days=60))
        snapshots = list(sensor.run(small_world.firehose(), emit_every=400))
        assert snapshots
        final = snapshots[-1]
        assert final.n_users > 50
        assert final.users_by_organ[Organ.HEART] > final.users_by_organ[
            Organ.INTESTINE
        ]


class TestValidation:
    def test_non_positive_window_rejected(self):
        with pytest.raises(ConfigError):
            RollingAwarenessSensor(window=timedelta(0))
