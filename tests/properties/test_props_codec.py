"""Record-codec byte format, held across every JSONL writer and frame.

Every stage but one hands tweet records on as JSON lines: the
firehose, the corpus, the incremental sink, the transport frames, the
serve responses and the dead letters.  Their byte format is fixed: one
``json.dumps(x.to_dict(), ensure_ascii=False)`` line per record
(responses with ``sort_keys=True``), each durable file with a sidecar
equal to :func:`repro.storage.manifest.build_manifest` of its bytes.
The exception is the shard-result frame, a pickle that must give back
records whose lines are unchanged and must refuse anything that is not
a whole frame of the current version.

The records are drawn at three seeds from text that stresses the
encoder: non-ASCII, JSON escapes, control characters, U+2028/U+2029,
``None`` fields and US and foreign places.
"""

import json
import pickle
import random
from datetime import datetime, timedelta, timezone

import pytest

from repro.dataset.io import write_jsonl, write_tweets_jsonl
from repro.dataset.records import CollectedTweet
from repro.errors import SerializationError
from repro.geo.geocoder import GeoMatch
from repro.obs.telemetry import Telemetry
from repro.organs import Organ
from repro.pipeline.incremental import IncrementalCollector
from repro.pipeline.runner import CollectionPipeline, PipelineReport
from repro.pipeline.wire import (
    WIRE_VERSION,
    decode_shard_result,
    encode_shard_result,
)
from repro.serve import Outcome, Response, write_responses_jsonl
from repro.storage.manifest import build_manifest, load_manifest
from repro.twitter.faults import FaultPlan, FaultySource
from repro.twitter.models import Place, Tweet, UserProfile
from repro.twitter.resilient import DeadLetter, write_dead_letters_jsonl

SEEDS = (1, 2, 3)

#: Characters the text fields are drawn from: ASCII, JSON escapes and
#: control characters, line and paragraph separators (which JSON leaves
#: unescaped), accented, CJK, right-to-left, emoji and zero-width.
ALPHABET = (
    "abcxyz 019"
    '"\\/'
    "\t\n\r\b\f\x00\x1f\x7f"
    "\u2028\u2029\x85"
    "éñüßø"
    "日本語"
    "مرحبا"
    "🙏❤🫀"
    "\u200b\u200d\ufeff"
)
LOCATIONS = ("Wichita, KS", "Austin, Texas 🤠", "Montréal, QC", "", "São Paulo")
PLACES = (None, Place("Wichita, KS", "US"), Place("São Paulo", "BR"))
START = datetime(2015, 4, 22, tzinfo=timezone.utc)


def noise(rng: random.Random, longest: int = 24) -> str:
    return "".join(rng.choice(ALPHABET) for __ in range(rng.randrange(longest)))


def make_tweets(seed: int, n: int = 120) -> list[Tweet]:
    """Tweets in id order; most of them pass the collection funnel."""
    rng = random.Random(seed)
    return [
        Tweet(
            tweet_id=1_000 + 3 * i,
            user=UserProfile(
                user_id=rng.randrange(40),
                screen_name=f"u{noise(rng, 6)}",
                location=rng.choice(LOCATIONS),
            ),
            text=f"{rng.choice(('kidney', 'liver', 'heart'))} donor {noise(rng)}",
            created_at=START
            + timedelta(seconds=rng.randrange(10**7), microseconds=rng.choice((0, 7))),
            place=rng.choice(PLACES),
            in_reply_to=rng.choice((None, rng.randrange(1_000))),
        )
        for i in range(n)
    ]


def make_records(seed: int, n: int = 120) -> list[CollectedTweet]:
    rng = random.Random(seed + 100)
    matches = (
        GeoMatch("US", "KS", 1.0, "gps"),
        GeoMatch("US", "NY", 0.95, "comma-abbrev"),
        GeoMatch("US", None, 1 / 3, "gps"),
    )
    return [
        CollectedTweet(
            tweet=tweet,
            location=rng.choice(matches),
            mentions={
                organ: rng.randrange(1, 4)
                for organ in rng.sample(list(Organ), rng.randrange(1, 4))
            },
        )
        for tweet in make_tweets(seed, n)
    ]


def make_responses(seed: int, n: int = 60) -> list[Response]:
    rng = random.Random(seed + 200)
    return [
        Response(
            request_id=f"r{i}-{noise(rng, 6)}",
            outcome=rng.choice(list(Outcome)),
            status=rng.choice(("ok", "degraded", "queue_full", "poison_query")),
            payload=rng.choice(
                (
                    None,
                    {"state": noise(rng, 8), "found": False},
                    {
                        "z": [[noise(rng, 5), rng.random()]],
                        "a": {"ñ": None, "k": rng.randrange(9)},
                    },
                )
            ),
            brownout_level=rng.randrange(3),
            finished_at=rng.random() * 100,
        )
        for i in range(n)
    ]


def make_dead_letters(seed: int, n: int = 40) -> list[DeadLetter]:
    rng = random.Random(seed + 300)
    return [
        DeadLetter(
            payload=noise(rng, 30),
            reason=rng.choice(("invalid-json", "malformed-record")),
            sequence=rng.randrange(10**6),
        )
        for __ in range(n)
    ]


def plain_lines(items, sort_keys: bool = False) -> bytes:
    return "".join(
        json.dumps(item.to_dict(), ensure_ascii=False, sort_keys=sort_keys) + "\n"
        for item in items
    ).encode("utf-8")


def assert_sidecar_describes(path) -> None:
    assert load_manifest(path) == build_manifest(path)


@pytest.mark.parametrize("seed", SEEDS)
class TestDurableFiles:
    def test_firehose(self, tmp_path, seed):
        tweets = make_tweets(seed)
        path = tmp_path / "firehose.jsonl"
        assert write_tweets_jsonl(tweets, path) == len(tweets)
        assert path.read_bytes() == plain_lines(tweets)
        assert_sidecar_describes(path)

    def test_corpus(self, tmp_path, seed):
        records = make_records(seed)
        path = tmp_path / "corpus.jsonl"
        assert write_jsonl(records, path) == len(records)
        assert path.read_bytes() == plain_lines(records)
        assert_sidecar_describes(path)

    def test_responses(self, tmp_path, seed):
        responses = make_responses(seed)
        path = tmp_path / "responses.jsonl"
        assert write_responses_jsonl(responses, path) == len(responses)
        assert path.read_bytes() == plain_lines(responses, sort_keys=True)
        assert_sidecar_describes(path)

    def test_dead_letters(self, tmp_path, seed):
        letters = make_dead_letters(seed)
        path = tmp_path / "dead_letters.jsonl"
        assert write_dead_letters_jsonl(letters, path) == len(letters)
        assert path.read_bytes() == plain_lines(letters)
        assert_sidecar_describes(path)

    def test_empty_files(self, tmp_path, seed):
        writers = (
            write_tweets_jsonl,
            write_jsonl,
            write_responses_jsonl,
            write_dead_letters_jsonl,
        )
        for index, write in enumerate(writers):
            path = tmp_path / f"empty{index}.jsonl"
            assert write([], path) == 0
            assert path.read_bytes() == b""
            assert_sidecar_describes(path)


@pytest.mark.parametrize("seed", SEEDS)
class TestStreamLines:
    def test_passthrough_frames_are_firehose_lines(self, tmp_path, seed):
        tweets = make_tweets(seed)
        path = tmp_path / "firehose.jsonl"
        write_tweets_jsonl(tweets, path)
        frames = list(FaultySource(iter(tweets), FaultPlan.none()).connect())
        expected = path.read_bytes().decode("utf-8").split("\n")[:-1]
        assert frames == expected

    def test_incremental_sink_lines_are_corpus_lines(self, tmp_path, seed):
        tweets = make_tweets(seed)
        corpus, __ = CollectionPipeline().run(tweets)
        assert len(corpus) > len(tweets) // 4
        corpus_path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus.records, corpus_path)
        sink_path = tmp_path / "sink.jsonl"
        IncrementalCollector(sink_path).run(tweets)
        assert sink_path.read_bytes() == corpus_path.read_bytes()
        assert sink_path.read_bytes() == plain_lines(corpus.records)
        assert_sidecar_describes(sink_path)


def shard_result(seed: int) -> tuple[list[tuple[int, CollectedTweet]], PipelineReport]:
    rng = random.Random(seed + 400)
    records = make_records(seed, 30)
    positions = sorted(rng.sample(range(10_000), len(records)))
    report = PipelineReport(collected=90, us_located=40, retained=len(records))
    return list(zip(positions, records)), report


@pytest.mark.parametrize("seed", SEEDS)
class TestShardFrame:
    def test_round_trip(self, seed):
        records, report = shard_result(seed)
        out_records, out_report, snapshot = decode_shard_result(
            encode_shard_result(records, report, None)
        )
        assert out_records == records
        assert out_report == report
        assert snapshot is None

    def test_round_trip_with_snapshot(self, seed):
        records, report = shard_result(seed)
        telemetry = Telemetry(worker="shard-0")
        telemetry.inc("shard.records_out", len(records), shard=0)
        out_records, out_report, snapshot = decode_shard_result(
            encode_shard_result(records, report, telemetry.snapshot())
        )
        assert out_records == records
        assert out_report == report
        assert snapshot is not None

    @pytest.mark.parametrize(
        "replacement",
        [b'{"not a record": true}', b'{"tweet": {}}', b"[]", b"null", b"42", b'"x"'],
    )
    def test_valid_json_that_is_not_a_record_raises(self, seed, replacement):
        records, report = shard_result(seed)
        # The first record's slot holds a decoded JSON value instead.
        (position, __), *rest = records
        corrupted = [(position, json.loads(replacement)), *rest]
        with pytest.raises(SerializationError):
            decode_shard_result(pickle.dumps((WIRE_VERSION, corrupted, report, None)))

    def test_invalid_json_record_line_raises(self, seed):
        records, report = shard_result(seed)
        # The first record's slot holds raw line text instead.
        (position, __), *rest = records
        corrupted = [(position, "{garbage"), *rest]
        with pytest.raises(SerializationError):
            decode_shard_result(pickle.dumps((WIRE_VERSION, corrupted, report, None)))

    def test_cut_frame_raises(self, seed):
        records, report = shard_result(seed)
        frame = encode_shard_result(records, report, None)
        for cut in (0, 1, len(frame) // 4, len(frame) // 2, len(frame) - 1):
            with pytest.raises(SerializationError):
                decode_shard_result(frame[:cut])

    def test_garbage_raises(self, seed):
        records, report = shard_result(seed)
        # The same shard as a wire v2 frame: a JSON header, corpus lines.
        header = {
            "v": 2,
            "positions": [position for position, __ in records],
            "report": report.to_dict(),
            "snapshot": 0,
        }
        v2_frame = (json.dumps(header) + "\n").encode() + plain_lines(
            record for __, record in records
        )
        frame = encode_shard_result(records, report, None)
        for garbage in (v2_frame, b"\x00" + frame, b"not a frame"):
            with pytest.raises(SerializationError):
                decode_shard_result(garbage)

    def test_valid_pickle_that_is_not_a_frame_raises(self, seed):
        records, report = shard_result(seed)
        for payload in (
            records,
            (records, report, None),
            {"v": WIRE_VERSION, "records": records, "report": report},
            (WIRE_VERSION, records, report.to_dict(), None),
        ):
            with pytest.raises(SerializationError):
                decode_shard_result(pickle.dumps(payload))

    def test_bumped_version_raises(self, seed):
        records, report = shard_result(seed)
        frame = pickle.dumps((WIRE_VERSION + 1, records, report, None))
        with pytest.raises(SerializationError, match="version"):
            decode_shard_result(frame)
