"""Tests for JSONL persistence."""

import itertools
import json
from datetime import datetime, timedelta, timezone

import pytest

from repro.dataset.io import read_jsonl, write_jsonl
from repro.dataset.records import CollectedTweet
from repro.errors import SerializationError
from repro.geo.geocoder import GeoMatch
from repro.organs import Organ
from repro.twitter.models import Place, Tweet, UserProfile


def records(n: int) -> list[CollectedTweet]:
    return [
        CollectedTweet(
            tweet=Tweet(
                tweet_id=i,
                user=UserProfile(user_id=i % 3, screen_name=f"u{i % 3}",
                                 location="Wichita, KS"),
                text=f"kidney donor tweet {i}",
            ),
            location=GeoMatch("US", "KS", 0.95, "comma-abbrev"),
            mentions={Organ.KIDNEY: 1 + i % 2},
        )
        for i in range(n)
    ]


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        original = records(25)
        assert write_jsonl(original, path) == 25
        assert list(read_jsonl(path)) == original

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl([], path)
        assert list(read_jsonl(path)) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        write_jsonl(records(2), path)
        content = path.read_text()
        path.write_text(content.replace("\n", "\n\n"))
        assert len(list(read_jsonl(path))) == 2

    def test_unicode_text_preserved(self, tmp_path):
        rec = records(1)[0]
        tweet = Tweet(
            tweet_id=0,
            user=rec.tweet.user,
            text="kidney donor 🙏 ❤",
            created_at=rec.tweet.created_at,
        )
        rec = CollectedTweet(tweet=tweet, location=rec.location,
                             mentions=rec.mentions)
        path = tmp_path / "emoji.jsonl"
        write_jsonl([rec], path)
        assert next(iter(read_jsonl(path))).tweet.text == "kidney donor 🙏 ❤"


class TestMalformedFiles:
    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(records(1), path)
        with open(path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(SerializationError, match=":2"):
            list(read_jsonl(path))

    def test_valid_json_wrong_schema_reports_line(self, tmp_path):
        path = tmp_path / "schema.jsonl"
        path.write_text('{"foo": 1}\n')
        with pytest.raises(SerializationError, match=":1"):
            list(read_jsonl(path))

    def test_reading_is_lazy(self, tmp_path):
        path = tmp_path / "lazy.jsonl"
        write_jsonl(records(3), path)
        with open(path, "a") as handle:
            handle.write("garbage\n")
        reader = read_jsonl(path)
        assert next(reader).tweet.tweet_id == 0  # no error until reached


class TestTornTail:
    def test_tolerant_skips_torn_final_line_with_warning(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        write_jsonl(records(3), path)
        with open(path, "a") as handle:
            handle.write('{"tweet": {"tweet_id": 3, "us')  # no newline
        with pytest.warns(UserWarning, match="torn trailing record"):
            loaded = list(read_jsonl(path, tolerate_torn_tail=True))
        assert [r.tweet.tweet_id for r in loaded] == [0, 1, 2]

    def test_strict_default_still_raises_on_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        write_jsonl(records(2), path)
        with open(path, "a") as handle:
            handle.write('{"tweet":')
        with pytest.raises(SerializationError, match=":3"):
            list(read_jsonl(path))

    def test_tolerant_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        write_jsonl(records(3), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "{not json\n"
        path.write_text("".join(lines))
        with pytest.raises(SerializationError, match=":2"):
            list(read_jsonl(path, tolerate_torn_tail=True))

    def test_tolerant_whitespace_after_torn_line_ok(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        write_jsonl(records(1), path)
        with open(path, "a") as handle:
            handle.write('{"tweet\n   \n')
        with pytest.warns(UserWarning, match="torn"):
            assert len(list(read_jsonl(path, tolerate_torn_tail=True))) == 1


class TestAtomicWrites:
    def test_crash_mid_write_preserves_old_corpus(self, tmp_path):
        from repro.faults.storage import SimulatedCrash, StorageFaultPlan
        from repro.storage.fs import FaultyFS

        path = tmp_path / "corpus.jsonl"
        write_jsonl(records(5), path)
        old_bytes = path.read_bytes()
        # Power fails on the 3rd data write of the replacement corpus:
        # the half-written temp file dies, the old corpus survives.
        fs = FaultyFS(StorageFaultPlan(crash_at=5))
        with pytest.raises(SimulatedCrash):
            write_jsonl(records(50), path, fs=fs)
        assert path.read_bytes() == old_bytes
        assert list(read_jsonl(path)) == records(5)

    def test_enospc_surfaces_and_preserves_old_corpus(self, tmp_path):
        from repro.errors import StorageError
        from repro.faults.storage import StorageFaultPlan
        from repro.storage.fs import FaultyFS

        path = tmp_path / "corpus.jsonl"
        write_jsonl(records(3), path)
        old_bytes = path.read_bytes()
        fs = FaultyFS(StorageFaultPlan(enospc_at=1))
        with pytest.raises(StorageError, match="no space left"):
            write_jsonl(records(30), path, fs=fs)
        assert path.read_bytes() == old_bytes

    def test_write_leaves_integrity_sidecar(self, tmp_path):
        from repro.storage.manifest import load_manifest, verify_file

        path = tmp_path / "corpus.jsonl"
        write_jsonl(records(4), path)
        manifest = load_manifest(path)
        assert manifest is not None
        assert manifest.records == 4
        assert verify_file(path).ok

    def test_no_temp_file_after_clean_write(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(records(2), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corpus.jsonl", "corpus.jsonl.manifest.json",
        ]


class TestTweetsTornTail:
    def make_firehose(self, tmp_path, n: int):
        from repro.dataset.io import write_tweets_jsonl

        path = tmp_path / "firehose.jsonl"
        tweets = [record.tweet for record in records(n)]
        write_tweets_jsonl(tweets, path)
        return path, tweets

    def test_tolerant_skips_torn_final_line(self, tmp_path):
        from repro.dataset.io import read_tweets_jsonl

        path, tweets = self.make_firehose(tmp_path, 3)
        with open(path, "a") as handle:
            handle.write('{"tweet_id": 3, "us')  # no newline
        with pytest.warns(UserWarning, match="torn trailing record"):
            loaded = list(read_tweets_jsonl(path, tolerate_torn_tail=True))
        assert loaded == tweets

    def test_strict_default_raises(self, tmp_path):
        from repro.dataset.io import read_tweets_jsonl

        path, __ = self.make_firehose(tmp_path, 2)
        with open(path, "a") as handle:
            handle.write('{"tweet_id":')
        with pytest.raises(SerializationError, match=":3"):
            list(read_tweets_jsonl(path))

    def test_tolerant_mid_file_corruption_still_raises(self, tmp_path):
        from repro.dataset.io import read_tweets_jsonl

        path, __ = self.make_firehose(tmp_path, 3)
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = "{broken\n"
        path.write_text("".join(lines))
        with pytest.raises(SerializationError, match=":1"):
            list(read_tweets_jsonl(path, tolerate_torn_tail=True))

    def test_torn_tail_probe_reads_bounded_chunks(self, tmp_path):
        """A torn line followed by a huge whitespace run must not be
        slurped in one read() call."""
        from repro.dataset.io import read_tweets_jsonl
        from repro.storage import jsonl

        path, tweets = self.make_firehose(tmp_path, 1)
        with open(path, "a") as handle:
            handle.write('{"torn')
            handle.write(" " * (jsonl._TAIL_PROBE_BYTES * 3))
        with pytest.warns(UserWarning, match="torn"):
            assert list(
                read_tweets_jsonl(path, tolerate_torn_tail=True)
            ) == tweets


def varied_records(n: int) -> list[CollectedTweet]:
    """Records cycling through every field shape the writers encode.

    Non-ASCII and escape-heavy text, ``None`` fields (no place, no
    reply, no state), US and foreign geo-tag places, GPS-located and
    profile-located matches, and multi-organ mention dicts.
    """
    texts = (
        "kidney donor tweet",
        "donante de riñón 🙏 ❤ — “thank you”",
        'quote " backslash \\ tab \t newline \n bell \x07 end',
        "line\u2028separator and \u00e9t\u00e9 #OrganDonor",
        "",
    )
    places = (None, Place("Wichita, KS", "US"), Place("São Paulo", "BR"))
    matches = (
        GeoMatch("US", "KS", 1.0, "gps"),
        GeoMatch("US", "NY", 0.95, "comma-abbrev"),
        GeoMatch("US", None, 0.9, "gps"),
    )
    mentions = (
        {Organ.KIDNEY: 1},
        {Organ.LIVER: 2, Organ.HEART: 1},
        dict.fromkeys(Organ, 1),
    )
    shapes = itertools.product(texts, places, matches, (None, 7), mentions)
    start = datetime(2015, 4, 22, tzinfo=timezone.utc)
    return [
        CollectedTweet(
            tweet=Tweet(
                tweet_id=10_000 + i,
                user=UserProfile(i % 17, f"usuário{i % 17}", ("Montréal, QC", "")[i % 2]),
                text=f"{text} {i}",
                created_at=start + timedelta(seconds=37 * i, microseconds=i % 2),
                place=place,
                in_reply_to=None if reply is None else reply + i,
            ),
            location=match,
            mentions=organs,
        )
        for i, (text, place, match, reply, organs) in zip(
            range(n), itertools.cycle(shapes)
        )
    ]


class TestWriteFormat:
    """The writers' bytes are exactly one ``json.dumps`` line per record.

    The plain encoding is the format every reader and manifest depends
    on; the durable write path (temp file, fsyncs, rename, integrity
    sidecar) must not change a byte of it, and the sidecar it leaves
    equals one built from the file afterwards.
    """

    @pytest.mark.parametrize("kind", ["corpus", "firehose"])
    def test_bytes_equal_plain_lines(self, tmp_path, kind):
        from repro.dataset.io import read_tweets_jsonl, write_tweets_jsonl
        from repro.storage.manifest import build_manifest, load_manifest, verify_file

        items, write, read = (varied_records(500), write_jsonl, read_jsonl)
        if kind == "firehose":
            items = [record.tweet for record in items]
            write, read = write_tweets_jsonl, read_tweets_jsonl
        path = tmp_path / f"{kind}.jsonl"
        assert write(items, path) == 500
        expected = "".join(
            json.dumps(item.to_dict(), ensure_ascii=False) + "\n" for item in items
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert load_manifest(path) == build_manifest(path)
        assert verify_file(path).ok
        assert list(read(path)) == items
