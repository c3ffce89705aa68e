"""Tests for resumable collection."""

import json

import pytest

from repro.errors import PipelineError
from repro.pipeline.incremental import IncrementalCollector
from repro.twitter.models import Tweet, UserProfile


def tweet(tweet_id: int, text: str = "kidney donor",
          location: str = "Wichita, KS") -> Tweet:
    return Tweet(
        tweet_id=tweet_id,
        user=UserProfile(user_id=tweet_id % 7, screen_name="u",
                         location=location),
        text=text,
    )


@pytest.fixture()
def paths(tmp_path):
    return tmp_path / "corpus.jsonl", tmp_path / "corpus.jsonl.checkpoint.json"


class TestBasicCollection:
    def test_writes_and_checkpoints(self, paths):
        corpus_path, checkpoint_path = paths
        collector = IncrementalCollector(corpus_path)
        written = collector.run([tweet(i) for i in range(10)])
        assert written == 10
        assert checkpoint_path.exists()
        state = json.loads(checkpoint_path.read_text())
        assert state["last_tweet_id"] == 9
        assert state["retained"] == 10

    def test_filters_apply(self, paths):
        corpus_path, __ = paths
        collector = IncrementalCollector(corpus_path)
        written = collector.run([
            tweet(1),
            tweet(2, text="nice sunset"),          # off-topic
            tweet(3, location="London"),            # non-US
            tweet(4, location="the moon"),          # unresolvable
        ])
        assert written == 1

    def test_load_corpus(self, paths):
        corpus_path, __ = paths
        collector = IncrementalCollector(corpus_path)
        collector.run([tweet(i) for i in range(5)])
        corpus = collector.load_corpus()
        assert len(corpus) == 5


class TestResume:
    def test_resume_continues_without_duplicates(self, paths):
        corpus_path, __ = paths
        first = IncrementalCollector(corpus_path)
        first.run([tweet(i) for i in range(5)])

        # New collector instance (process restart) over an overlapping
        # slice: ids 0-4 must be skipped, 5-9 processed.
        second = IncrementalCollector(corpus_path)
        written = second.run([tweet(i) for i in range(10)])
        assert written == 5
        corpus = second.load_corpus()
        ids = sorted(record.tweet.tweet_id for record in corpus)
        assert ids == list(range(10))

    def test_idempotent_replay(self, paths):
        corpus_path, __ = paths
        collector = IncrementalCollector(corpus_path)
        collector.run([tweet(i) for i in range(5)])
        again = IncrementalCollector(corpus_path)
        assert again.run([tweet(i) for i in range(5)]) == 0

    def test_counters_cumulative(self, paths):
        corpus_path, __ = paths
        IncrementalCollector(corpus_path).run([tweet(i) for i in range(4)])
        collector = IncrementalCollector(corpus_path)
        collector.run([tweet(i) for i in range(4, 8)])
        assert collector.checkpoint.retained == 8
        assert collector.checkpoint.seen == 8

    def test_mid_stream_checkpointing(self, paths):
        corpus_path, checkpoint_path = paths
        collector = IncrementalCollector(corpus_path)
        collector.run([tweet(i) for i in range(7)], checkpoint_every=2)
        state = json.loads(checkpoint_path.read_text())
        assert state["last_tweet_id"] == 6


class TestFailureModes:
    def test_corrupt_checkpoint_raises(self, paths):
        corpus_path, checkpoint_path = paths
        checkpoint_path.write_text("{not json")
        with pytest.raises(PipelineError, match="corrupt checkpoint"):
            IncrementalCollector(corpus_path)

    def test_invalid_checkpoint_every(self, paths):
        corpus_path, __ = paths
        collector = IncrementalCollector(corpus_path)
        with pytest.raises(PipelineError):
            collector.run([], checkpoint_every=0)

    def test_empty_stream_noop(self, paths):
        corpus_path, __ = paths
        collector = IncrementalCollector(corpus_path)
        assert collector.run([]) == 0


def interrupted(tweets, kill_at: int):
    """A source that dies (process kill) after yielding ``kill_at`` tweets."""
    def generator():
        for index, item in enumerate(tweets):
            if index == kill_at:
                raise RuntimeError("killed")
            yield item
    return generator()


class TestCrashRecovery:
    """A kill at any instant must resume with no dups and no drops."""

    def baseline_bytes(self, tmp_path, tweets) -> bytes:
        path = tmp_path / "baseline.jsonl"
        IncrementalCollector(path).run(iter(tweets), checkpoint_every=10)
        return path.read_bytes()

    def test_kill_mid_batch(self, tmp_path):
        tweets = [tweet(i) for i in range(50)]
        expected = self.baseline_bytes(tmp_path, tweets)

        corpus_path = tmp_path / "corpus.jsonl"
        with pytest.raises(RuntimeError):
            IncrementalCollector(corpus_path).run(
                interrupted(tweets, 37), checkpoint_every=10
            )
        # Records 30-36 were flushed on close but never checkpointed:
        # recovery must adopt them so the replay cannot duplicate them.
        with pytest.warns(UserWarning, match="adopted"):
            resumed = IncrementalCollector(corpus_path)
        assert resumed.checkpoint.last_tweet_id == 36
        resumed.run(iter(tweets), checkpoint_every=10)
        assert corpus_path.read_bytes() == expected

    def test_kill_mid_jsonl_line(self, tmp_path):
        tweets = [tweet(i) for i in range(20)]
        expected = self.baseline_bytes(tmp_path, tweets)

        corpus_path = tmp_path / "corpus.jsonl"
        with pytest.raises(RuntimeError):
            IncrementalCollector(corpus_path).run(
                interrupted(tweets, 13), checkpoint_every=5
            )
        # Tear the final record mid-line, as a kill during the write
        # syscall would.
        data = corpus_path.read_bytes()
        corpus_path.write_bytes(data[:-17])
        with pytest.warns(UserWarning) as caught:
            resumed = IncrementalCollector(corpus_path)
        messages = [str(w.message) for w in caught]
        assert any("torn" in m for m in messages)
        assert any("adopted" in m for m in messages)
        resumed.run(iter(tweets), checkpoint_every=5)
        assert corpus_path.read_bytes() == expected

    def test_kill_mid_checkpoint_write(self, tmp_path):
        tweets = [tweet(i) for i in range(20)]
        expected = self.baseline_bytes(tmp_path, tweets)

        corpus_path = tmp_path / "corpus.jsonl"
        collector = IncrementalCollector(corpus_path)
        collector.run(iter(tweets[:10]), checkpoint_every=5)
        # A kill during checkpoint write leaves a garbage temp file; the
        # real checkpoint is intact because the replace never happened.
        tmp_checkpoint = tmp_path / "corpus.jsonl.checkpoint.json.tmp"
        tmp_checkpoint.write_text('{"last_tweet_id": 9, "se')
        resumed = IncrementalCollector(corpus_path)
        assert resumed.checkpoint.last_tweet_id == 9
        resumed.run(iter(tweets), checkpoint_every=5)
        assert corpus_path.read_bytes() == expected
        assert not tmp_checkpoint.exists()  # consumed by os.replace

    def test_failed_checkpoint_replace_preserves_old_state(
        self, paths, monkeypatch
    ):
        corpus_path, checkpoint_path = paths
        collector = IncrementalCollector(corpus_path)
        collector.run([tweet(i) for i in range(5)])
        before = checkpoint_path.read_text()

        def broken_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(
            "repro.pipeline.incremental.os.replace", broken_replace
        )
        with pytest.raises(OSError):
            collector.run([tweet(i) for i in range(5, 10)])
        assert checkpoint_path.read_text() == before

    def test_mid_file_corruption_still_raises(self, paths):
        from repro.errors import SerializationError

        corpus_path, __ = paths
        IncrementalCollector(corpus_path).run([tweet(i) for i in range(5)])
        lines = corpus_path.read_text().splitlines(keepends=True)
        lines[2] = '{"torn": \n'
        corpus_path.write_text("".join(lines))
        with pytest.raises(SerializationError, match=":3"):
            IncrementalCollector(corpus_path)


class TestEquivalenceWithBatchPipeline:
    def test_same_records_as_one_shot_pipeline(self, tmp_path, small_world):
        """Incremental collection over the firehose must retain exactly
        what the batch pipeline retains."""
        from itertools import islice

        from repro.pipeline.runner import CollectionPipeline

        slice_of_world = list(islice(small_world.firehose(), 3000))
        batch_corpus, __ = CollectionPipeline().run(iter(slice_of_world))

        collector = IncrementalCollector(tmp_path / "inc.jsonl")
        # Split the same slice across three separate runs.
        collector.run(iter(slice_of_world[:1000]))
        collector = IncrementalCollector(tmp_path / "inc.jsonl")
        collector.run(iter(slice_of_world[1000:2200]))
        collector.run(iter(slice_of_world[2200:]))
        incremental_corpus = collector.load_corpus()

        def lines(corpus):
            return [
                json.dumps(record.to_dict(), ensure_ascii=False)
                for record in corpus.records
            ]

        assert lines(batch_corpus)
        assert lines(incremental_corpus) == lines(batch_corpus)
