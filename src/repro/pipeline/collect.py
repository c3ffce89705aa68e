"""Step 1: keyword-filtered collection.

Builds the query set Q = Context × Subject (Fig. 1) and opens a filtered
stream over the tweet source with Twitter ``track`` semantics.  Every tweet
the stream delivers contains at least one Context term and at least one
Subject term, so the collected dataset is conceived in the organ-donation
context, exactly as the paper argues.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.config import CollectionConfig
from repro.nlp.keywords import build_query_set, track_phrases
from repro.twitter.models import Tweet
from repro.twitter.stream import FilteredStream, TrackFilter


def track_filter(config: CollectionConfig) -> TrackFilter:
    """The query set Q of ``config`` as one ``track`` filter."""
    return TrackFilter(
        track_phrases(
            build_query_set(config.context_terms, config.subject_terms)
        )
    )


def collect(source: Iterable[Tweet], config: CollectionConfig) -> FilteredStream:
    """Open a keyword-filtered stream over ``source``.

    Returns the stream object (not a list) so callers can consume lazily
    and read the delivered/dropped counters afterwards.
    """
    return FilteredStream(source, track=track_filter(config))
