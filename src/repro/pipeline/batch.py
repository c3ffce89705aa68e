"""The funnel kernel: the one implementation of collect → geocode →
US-filter → match.

A :class:`Funnel` is built once from a
:class:`~repro.config.CollectionConfig`: the query set Q becomes one
:class:`~repro.twitter.stream.TrackFilter`, beside one
:class:`~repro.geo.geocoder.Geocoder` and one
:class:`~repro.nlp.matcher.OrganMatcher`.  Every driver feeds the same
:meth:`Funnel.process_batch` loop:

* the serial runner and the sharded workers in batches of
  :data:`BATCH_SIZE`, so stream overhead is paid per batch;
* the incremental collector and the rolling sensor one tweet at a time,
  each after its own check (the checkpoint, the stale horizon).

Inside the loop the stage callables are hoisted into locals, and the
provenance counters accumulate in local integers that flush into the
caller's :class:`~repro.pipeline.runner.PipelineReport` once per batch —
totals are identical at any batch size because every counter is a plain
sum.  ``tests/properties/test_props_funnel.py`` holds every driver to the
same records and counters.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice
from typing import TYPE_CHECKING

from repro.config import CollectionConfig
from repro.dataset.records import CollectedTweet
from repro.geo.geocoder import Geocoder
from repro.nlp.matcher import OrganMatcher
from repro.pipeline.augment import augment_location
from repro.pipeline.collect import track_filter
from repro.pipeline.usfilter import is_us_located
from repro.twitter.models import Tweet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.pipeline.runner import PipelineReport

#: Tweets processed per batch.  Large enough to amortize per-batch
#: setup to noise, small enough that a batch of position-tagged records
#: stays cache-friendly.
BATCH_SIZE = 2048


def iter_batches(
    source: Iterable[tuple[int, Tweet]], size: int = BATCH_SIZE
) -> Iterator[list[tuple[int, Tweet]]]:
    """Chunk a position-tagged tweet stream into lists of ``size``."""
    iterator = iter(source)
    while True:
        batch = list(islice(iterator, size))
        if not batch:
            return
        yield batch


class Funnel:
    """The §III-A funnel for one :class:`CollectionConfig`.

    Args:
        config: collection configuration; its query set becomes the
            track filter.
        geocoder: location resolver (a fresh one when omitted).
        matcher: organ-mention extractor (a fresh one when omitted).
    """

    __slots__ = ("config", "track", "geocoder", "matcher")

    def __init__(
        self,
        config: CollectionConfig,
        geocoder: Geocoder | None = None,
        matcher: OrganMatcher | None = None,
    ) -> None:
        self.config = config
        self.track = track_filter(config)
        self.geocoder = geocoder if geocoder is not None else Geocoder()
        self.matcher = matcher if matcher is not None else OrganMatcher()

    def process_batch(
        self, batch: list[tuple[int, Tweet]], report: "PipelineReport"
    ) -> list[tuple[int, CollectedTweet]]:
        """Run the funnel over one batch; flush counters once at the end.

        Returns the surviving records tagged with their positions.
        """
        track_matches = self.track.matches
        locate = augment_location
        geocoder = self.geocoder
        us_filter = is_us_located
        extract_mentions = self.matcher.mentions
        config = self.config
        out: list[tuple[int, CollectedTweet]] = []
        append = out.append
        stream_dropped = 0
        collected = 0
        located_gps = 0
        located_profile = 0
        unresolved = 0
        non_us = 0
        us_located = 0
        no_mentions = 0
        retained = 0
        for position, tweet in batch:
            text = tweet.text
            if not track_matches(text):
                stream_dropped += 1
                continue
            collected += 1
            match = locate(tweet, geocoder, config)
            if match.country is None:
                unresolved += 1
                continue
            if match.source == "gps":
                located_gps += 1
            else:
                located_profile += 1
            if not us_filter(match, config):
                non_us += 1
                continue
            us_located += 1
            mentions = extract_mentions(text)
            if not mentions:
                no_mentions += 1
                continue
            retained += 1
            append(
                (
                    position,
                    CollectedTweet(
                        tweet=tweet, location=match, mentions=dict(mentions)
                    ),
                )
            )
        report.stream_dropped += stream_dropped
        report.collected += collected
        report.located_gps += located_gps
        report.located_profile += located_profile
        report.unresolved += unresolved
        report.non_us += non_us
        report.us_located += us_located
        report.no_mentions += no_mentions
        report.retained += retained
        return out

    def process_stream(
        self,
        source: Iterable[tuple[int, Tweet]],
        report: "PipelineReport",
        batch_size: int = BATCH_SIZE,
    ) -> list[tuple[int, CollectedTweet]]:
        """Drive :meth:`process_batch` over a whole position-tagged stream.

        ``batch_size`` only affects counter-flush granularity, never
        results.
        """
        records: list[tuple[int, CollectedTweet]] = []
        for batch in iter_batches(source, batch_size):
            records.extend(self.process_batch(batch, report))
        return records
