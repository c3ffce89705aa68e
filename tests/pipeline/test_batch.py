"""Tests for the funnel kernel.

:class:`Funnel` runs the keyword filter and the per-tweet stages in one
tight loop with hoisted locals and batched counter flushes; these tests
hold it in lockstep with the unbatched formulation below — same records,
same provenance counters — over a real synthetic firehose, so any drift
between the loop and :func:`augment_location` / :func:`is_us_located`
fails loudly.
"""

from __future__ import annotations

import pytest

from repro.config import CollectionConfig
from repro.dataset.records import CollectedTweet
from repro.geo.geocoder import Geocoder
from repro.nlp.matcher import OrganMatcher
from repro.pipeline.augment import augment_location
from repro.pipeline.batch import BATCH_SIZE, Funnel, iter_batches
from repro.pipeline.collect import track_filter
from repro.pipeline.runner import PipelineReport
from repro.pipeline.usfilter import is_us_located
from repro.twitter.models import Tweet


def process_matched(
    tweet: Tweet,
    geocoder: Geocoder,
    matcher: OrganMatcher,
    config: CollectionConfig,
    report: PipelineReport,
) -> CollectedTweet | None:
    """Augment → US-filter → mention-extraction for one collected tweet.

    Updates ``report`` counters in place and returns the surviving record,
    or ``None`` when the tweet was dropped.  ``report.collected`` is the
    caller's responsibility (the keyword filter runs upstream).
    """
    match = augment_location(tweet, geocoder, config)
    if not match.resolved:
        report.unresolved += 1
        return None
    if match.source == "gps":
        report.located_gps += 1
    else:
        report.located_profile += 1
    if not is_us_located(match, config):
        report.non_us += 1
        return None
    report.us_located += 1
    mentions = matcher.mentions(tweet.text)
    if not mentions:
        report.no_mentions += 1
        return None
    report.retained += 1
    return CollectedTweet(tweet=tweet, location=match, mentions=dict(mentions))


def _reference_run(source, config):
    """The unbatched formulation: keyword filter + process_matched."""
    report = PipelineReport()
    geocoder = Geocoder()
    matcher = OrganMatcher()
    track = track_filter(config)
    tagged = []
    for position, tweet in enumerate(source):
        if not track.matches(tweet.text):
            report.stream_dropped += 1
            continue
        report.collected += 1
        record = process_matched(tweet, geocoder, matcher, config, report)
        if record is not None:
            tagged.append((position, record))
    return tagged, report


class TestIterBatches:
    def test_exact_multiple(self):
        batches = list(iter_batches(enumerate(range(6)), size=3))
        assert [len(b) for b in batches] == [3, 3]

    def test_ragged_tail(self):
        batches = list(iter_batches(enumerate(range(7)), size=3))
        assert [len(b) for b in batches] == [3, 3, 1]

    def test_empty_source(self):
        assert list(iter_batches(iter(()), size=3)) == []

    def test_preserves_order_and_positions(self):
        batches = list(iter_batches(enumerate("abcde"), size=2))
        flat = [item for batch in batches for item in batch]
        assert flat == [(0, "a"), (1, "b"), (2, "c"), (3, "d"), (4, "e")]

    def test_default_size(self):
        batches = list(iter_batches(enumerate(range(BATCH_SIZE + 1))))
        assert [len(b) for b in batches] == [BATCH_SIZE, 1]


class TestBatchFunnelLockstep:
    @pytest.fixture(scope="class")
    def firehose(self, small_world):
        return list(small_world.firehose())

    def test_records_and_report_identical(self, firehose):
        config = CollectionConfig()
        expected_records, expected_report = _reference_run(firehose, config)

        report = PipelineReport()
        records = Funnel(config).process_stream(enumerate(firehose), report)

        assert records == expected_records
        assert report == expected_report
        assert report.retained == len(records) > 0

    def test_batch_size_does_not_change_results(self, firehose):
        config = CollectionConfig()
        sample = firehose[:3_000]

        def run_with_batch_size(size):
            report = PipelineReport()
            records = Funnel(config).process_stream(
                enumerate(sample), report, batch_size=size
            )
            return records, report

        baseline = run_with_batch_size(2048)
        assert run_with_batch_size(1) == baseline
        assert run_with_batch_size(7) == baseline
        assert run_with_batch_size(len(sample) + 10) == baseline

    def test_positions_ascending(self, firehose):
        config = CollectionConfig()
        report = PipelineReport()
        records = Funnel(config).process_stream(
            enumerate(firehose[:5_000]), report
        )
        positions = [position for position, __ in records]
        assert positions == sorted(positions)

    def test_counters_account_for_every_tweet(self, firehose):
        config = CollectionConfig()
        report = PipelineReport()
        sample = firehose[:5_000]
        Funnel(config).process_stream(enumerate(sample), report)
        assert report.stream_dropped + report.collected == len(sample)
        assert (
            report.unresolved
            + report.located_gps
            + report.located_profile
            == report.collected
        )
        assert (
            report.non_us + report.us_located
            == report.located_gps + report.located_profile
        )
        assert report.no_mentions + report.retained == report.us_located
