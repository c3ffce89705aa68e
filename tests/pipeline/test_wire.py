"""Tests for the shard-result wire frame."""

from __future__ import annotations

import pickle
from datetime import datetime, timezone

import pytest

from repro.errors import SerializationError
from repro.geo.geocoder import GeoMatch
from repro.obs.telemetry import Telemetry
from repro.organs import Organ
from repro.dataset.records import CollectedTweet
from repro.pipeline.runner import PipelineReport
from repro.pipeline.wire import (
    WIRE_VERSION,
    decode_shard_result,
    encode_shard_result,
)
from repro.twitter.models import Tweet, UserProfile


def make_records(n: int = 3) -> list[tuple[int, CollectedTweet]]:
    records = []
    for i in range(n):
        records.append(
            (
                i * 7,
                CollectedTweet(
                    tweet=Tweet(
                        tweet_id=1000 + i,
                        user=UserProfile(
                            user_id=i + 1,
                            screen_name=f"user{i}",
                            location="Columbus, Ohio",
                        ),
                        text=f"be an organ donor #{i} 🙏",
                        created_at=datetime(
                            2015, 6, 1, 12, i, tzinfo=timezone.utc
                        ),
                    ),
                    location=GeoMatch("US", "OH", 0.9, "profile"),
                    mentions={Organ.KIDNEY: 2, Organ.HEART: 1},
                ),
            )
        )
    return records


def make_report() -> PipelineReport:
    return PipelineReport(
        stream_dropped=40, collected=10, located_gps=2, located_profile=5,
        unresolved=3, non_us=1, us_located=6, no_mentions=3, retained=3,
    )


def frame_of(*parts: object) -> bytes:
    """A hand-built pickle, for frames the encoder would never write."""
    return pickle.dumps(parts, protocol=pickle.HIGHEST_PROTOCOL)


class TestRecordLines:
    """Records come back with the corpus lines they went out with."""

    def test_round_trip(self):
        records = make_records()
        frame = encode_shard_result(records, make_report(), None)
        out_records, __, __ = decode_shard_result(frame)
        assert [
            (position, record.to_json()) for position, record in out_records
        ] == [(position, record.to_json()) for position, record in records]

    def test_empty(self):
        frame = encode_shard_result([], make_report(), None)
        records, report, __ = decode_shard_result(frame)
        assert records == []
        assert report == make_report()

    def test_malformed_line_raises(self):
        """A line where a record belongs: its dict, or raw line text."""
        (position, record), = make_records(1)
        for line in (record.to_dict(), record.to_json(), "{truncated"):
            frame = frame_of(WIRE_VERSION, [(position, line)], make_report(), None)
            with pytest.raises(SerializationError, match="records"):
                decode_shard_result(frame)


class TestShardFrame:
    def test_round_trip_without_snapshot(self):
        records, report = make_records(), make_report()
        frame = encode_shard_result(records, report, None)
        out_records, out_report, out_snapshot = decode_shard_result(frame)
        assert out_records == records
        assert out_report == report
        assert out_snapshot is None

    def test_round_trip_with_snapshot(self):
        telemetry = Telemetry()
        telemetry.inc("pipeline.collected", 5)
        snapshot = telemetry.snapshot()
        frame = encode_shard_result(make_records(1), make_report(), snapshot)
        __, __, out_snapshot = decode_shard_result(frame)
        assert out_snapshot is not None
        absorbed = Telemetry()
        absorbed.absorb(out_snapshot)
        assert absorbed.metrics.counter_value("pipeline.collected") == 5

    def test_empty_shard(self):
        frame = encode_shard_result([], PipelineReport(), None)
        records, report, snapshot = decode_shard_result(frame)
        assert records == []
        assert report == PipelineReport()
        assert snapshot is None

    def test_wrong_version_rejected(self):
        for version in (WIRE_VERSION - 1, WIRE_VERSION + 1, "3", None):
            frame = frame_of(version, make_records(1), make_report(), None)
            with pytest.raises(SerializationError, match="version"):
                decode_shard_result(frame)

    def test_missing_header_rejected(self):
        frame = pickle.dumps((make_records(1), make_report(), None))
        with pytest.raises(SerializationError, match="not a shard frame"):
            decode_shard_result(frame)

    def test_truncated_records_rejected(self):
        frame = encode_shard_result(make_records(3), make_report(), None)
        for cut in (0, 1, 2, 11, len(frame) // 3, len(frame) // 2, len(frame) - 1):
            with pytest.raises(SerializationError, match="undecodable"):
                decode_shard_result(frame[:cut])

    def test_short_snapshot_tail_rejected(self):
        telemetry = Telemetry()
        telemetry.inc("x", 1)
        frame = encode_shard_result([], make_report(), telemetry.snapshot())
        with pytest.raises(SerializationError, match="undecodable"):
            decode_shard_result(frame[:-4])

    def test_corrupt_record_line_rejected(self):
        """A record slot that is not a (position, record) pair."""
        (position, record), = make_records(1)
        for records in (
            [record],
            [(str(position), record)],
            [(position, record, position)],
            {position: record},
        ):
            frame = frame_of(WIRE_VERSION, records, make_report(), None)
            with pytest.raises(SerializationError, match="records"):
                decode_shard_result(frame)


class TestNotAFrame:
    @pytest.mark.parametrize(
        "garbage",
        [
            b"",
            b"no newline anywhere",
            b"\x80\x05garbage",
            # A wire v2 frame: a JSON header line.
            b'{"v":2,"positions":[],"report":{},"snapshot":0}\n',
        ],
    )
    def test_garbage_bytes_rejected(self, garbage):
        with pytest.raises(SerializationError, match="undecodable"):
            decode_shard_result(garbage)

    @pytest.mark.parametrize(
        "payload",
        [None, 42, "frame", [WIRE_VERSION, [], PipelineReport(), None], ()],
        ids=repr,
    )
    def test_valid_pickle_that_is_not_a_frame_rejected(self, payload):
        with pytest.raises(SerializationError, match="not a shard frame"):
            decode_shard_result(pickle.dumps(payload))

    def test_wrong_report_or_snapshot_type_rejected(self):
        report = make_report()
        with pytest.raises(SerializationError, match="report"):
            decode_shard_result(frame_of(WIRE_VERSION, [], report.to_dict(), None))
        with pytest.raises(SerializationError, match="snapshot"):
            decode_shard_result(frame_of(WIRE_VERSION, [], report, {"spans": []}))
