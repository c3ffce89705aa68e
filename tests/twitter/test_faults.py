"""Tests for the fault-injecting stream substrate."""

import json

import pytest

from repro.errors import ConfigError, SerializationError
from repro.twitter.errors import (
    HTTPStreamError,
    RateLimitError,
    StreamDisconnectError,
)
from repro.twitter.faults import (
    KEEPALIVE,
    FaultPlan,
    FaultySource,
)
from repro.twitter.models import Tweet, UserProfile


def decode_frame(frame: str) -> Tweet:
    """Decode one payload frame back into a tweet, as a client would."""
    try:
        return Tweet.from_dict(json.loads(frame))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON frame: {exc}") from exc


def tweets(n: int) -> list[Tweet]:
    return [
        Tweet(
            tweet_id=i,
            user=UserProfile(user_id=i % 5, screen_name="u"),
            text=f"kidney donor update {i}",
        )
        for i in range(n)
    ]


def drain(source: FaultySource) -> list[str]:
    """Drive a source the way a resilient client would, keeping every
    frame it manages to read."""
    frames: list[str] = []
    while not source.exhausted:
        try:
            connection = source.connect()
        except (RateLimitError, HTTPStreamError):
            continue
        try:
            for frame in connection:
                frames.append(frame)
        except StreamDisconnectError:
            continue
    return frames


class TestFaultPlanValidation:
    @pytest.mark.parametrize("name", [
        "disconnect_rate", "rate_limit_rate", "http_error_rate",
        "stall_rate", "keepalive_rate", "garbage_rate", "truncate_rate",
    ])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rates_must_be_probabilities(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            FaultPlan(**{name: bad})

    def test_stall_ticks_must_be_positive(self):
        with pytest.raises(ConfigError, match="stall_ticks"):
            FaultPlan(stall_ticks=0)

    def test_negative_backfill_rejected(self):
        with pytest.raises(ConfigError, match="backfill_depth"):
            FaultPlan(backfill_depth=-1)

    def test_negative_reorder_span_rejected(self):
        with pytest.raises(ConfigError, match="reorder_span"):
            FaultPlan(reorder_span=-1)

    def test_connect_failure_cap_must_be_positive(self):
        with pytest.raises(ConfigError, match="max_connect_failures"):
            FaultPlan(max_connect_failures=0)

    def test_truncation_requires_backfill(self):
        # Torn records are only recoverable through backfill.
        with pytest.raises(ConfigError, match="backfill_depth"):
            FaultPlan(truncate_rate=0.1, backfill_depth=0)

    def test_none_plan_has_no_faults(self):
        assert not FaultPlan.none().any_faults

    def test_chaos_plan_enables_every_class(self):
        plan = FaultPlan.chaos(seed=9)
        assert plan.any_faults
        assert plan.seed == 9
        assert plan.disconnect_rate > 0
        assert plan.truncate_rate > 0

    def test_max_displacement(self):
        assert FaultPlan(backfill_depth=8, reorder_span=4).max_displacement == 11
        assert FaultPlan(backfill_depth=0, reorder_span=0).max_displacement == 0

    def test_describe_names_active_faults(self):
        text = FaultPlan(seed=3, stall_rate=0.5).describe()
        assert "seed=3" in text
        assert "stall_rate=0.5" in text
        assert "disconnect_rate" not in text


class TestPassthrough:
    def test_no_faults_delivers_exact_frame_stream(self):
        items = tweets(30)
        source = FaultySource(iter(items), FaultPlan.none())
        assert drain(source) == [
            json.dumps(item.to_dict(), ensure_ascii=False) for item in items
        ]

    def test_no_faults_injects_nothing(self):
        source = FaultySource(iter(tweets(10)), FaultPlan.none())
        drain(source)
        log = source.injected.as_dict()
        assert log.pop("connections") == 1
        assert all(value == 0 for value in log.values())


class TestFaultClasses:
    def test_rejections_capped_then_forced_success(self):
        plan = FaultPlan(seed=1, rate_limit_rate=1.0, max_connect_failures=3)
        source = FaultySource(iter(tweets(3)), plan)
        for _ in range(3):
            with pytest.raises(RateLimitError):
                source.connect()
        source.connect()  # the cap forces the 4th attempt through
        assert source.injected.rate_limited == 3
        assert source.injected.connections == 1

    def test_http_error_carries_status(self):
        plan = FaultPlan(seed=1, http_error_rate=1.0)
        source = FaultySource(iter(tweets(3)), plan)
        with pytest.raises(HTTPStreamError) as excinfo:
            source.connect()
        assert excinfo.value.status == 503

    def test_rate_limit_is_420(self):
        with pytest.raises(RateLimitError) as excinfo:
            FaultySource(
                iter(tweets(1)), FaultPlan(seed=0, rate_limit_rate=1.0)
            ).connect()
        assert excinfo.value.status == 420

    def test_disconnects_recovered_by_reconnect(self):
        plan = FaultPlan(seed=5, disconnect_rate=1.0,
                         backfill_depth=2, reorder_span=2)
        source = FaultySource(iter(tweets(40)), plan)
        ids = [decode_frame(f).tweet_id for f in drain(source) if f]
        assert sorted(set(ids)) == list(range(40))
        assert source.injected.disconnects > 0
        assert source.injected.duplicates > 0

    def test_stall_burst_is_all_keepalives(self):
        plan = FaultPlan(seed=0, stall_rate=1.0, stall_ticks=5)
        source = FaultySource(iter(tweets(1)), plan)
        connection = source.connect()
        frames = [next(connection) for _ in range(5)]
        assert frames == [KEEPALIVE] * 5
        assert source.injected.stalls == 1
        assert source.injected.keepalives == 5

    def test_garbage_frames_are_undecodable_records(self):
        plan = FaultPlan(seed=2, garbage_rate=1.0)
        connection = FaultySource(iter(tweets(1)), plan).connect()
        for frame in [next(connection) for _ in range(4)]:
            with pytest.raises(SerializationError):
                decode_frame(frame)

    def test_truncated_frame_then_disconnect_then_backfill(self):
        plan = FaultPlan(seed=3, truncate_rate=1.0,
                         backfill_depth=4, reorder_span=0)
        source = FaultySource(iter(tweets(1)), plan)
        connection = source.connect()
        torn = next(connection)
        with pytest.raises(SerializationError):
            decode_frame(torn)
        with pytest.raises(StreamDisconnectError):
            next(connection)
        # The intact record comes back on the next connection's backfill.
        recovered = next(source.connect())
        assert decode_frame(recovered).tweet_id == 0
        assert source.injected.truncated_frames == 1

    def test_superseded_connection_is_dead(self):
        source = FaultySource(iter(tweets(5)), FaultPlan.none())
        old = source.connect()
        next(old)
        source.connect()
        with pytest.raises(StreamDisconnectError):
            next(old)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        def run(seed: int):
            source = FaultySource(iter(tweets(120)), FaultPlan.chaos(seed))
            return drain(source), source.injected.as_dict()

        assert run(13) == run(13)

    def test_different_seed_different_schedule(self):
        first = FaultySource(iter(tweets(120)), FaultPlan.chaos(1))
        second = FaultySource(iter(tweets(120)), FaultPlan.chaos(2))
        drain(first), drain(second)
        assert first.injected.as_dict() != second.injected.as_dict()


class TestNoRecordLost:
    def test_chaos_never_loses_a_record(self):
        items = tweets(150)
        source = FaultySource(iter(items), FaultPlan.chaos(seed=11))
        recovered: set[int] = set()
        for frame in drain(source):
            if frame == KEEPALIVE:
                continue
            try:
                recovered.add(decode_frame(frame).tweet_id)
            except SerializationError:
                continue  # torn/garbage copy; intact copy must also arrive
        assert recovered >= {t.tweet_id for t in items}
