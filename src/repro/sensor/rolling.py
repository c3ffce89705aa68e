"""Rolling-window organ-donation awareness sensor.

Consumes a live (or replayed) tweet stream and maintains the paper's
user-level characterization over a sliding time window, emitting
:class:`AwarenessSnapshot` records: per-organ user counts and the states
currently showing a significant conversation excess (Eq. 4 applied to the
window's population).  Each tweet that is not stale goes through the
funnel kernel (:class:`repro.pipeline.batch.Funnel`) as a one-tweet
batch, so the window holds exactly the records a batch run retains.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime, timedelta

from repro.config import CollectionConfig, RelativeRiskConfig
from repro.core.relative_risk import highlighted_organs
from repro.dataset.corpus import TweetCorpus
from repro.dataset.records import CollectedTweet
from repro.dataset.stats import users_per_organ
from repro.errors import ConfigError
from repro.obs import current as telemetry_current
from repro.organs import Organ
from repro.pipeline.batch import Funnel
from repro.pipeline.runner import PipelineReport
from repro.twitter.models import Tweet


@dataclass(frozen=True)
class AwarenessSnapshot:
    """The sensor's reading for one window.

    Attributes:
        window_start / window_end: time span covered.
        n_tweets: retained tweets in the window.
        n_users: distinct users in the window.
        users_by_organ: Fig. 2a per-window (organ popularity right now).
        highlights: Fig. 5 per-window (state → organs in excess).
    """

    window_start: datetime
    window_end: datetime
    n_tweets: int
    n_users: int
    users_by_organ: dict[Organ, int]
    highlights: dict[str, tuple[Organ, ...]]

    def emerging_states(self) -> list[str]:
        """States with at least one highlighted organ, sorted."""
        return sorted(state for state, organs in self.highlights.items() if organs)


class RollingAwarenessSensor:
    """Sliding-window awareness characterization over a tweet stream.

    Args:
        window: how much history a snapshot covers.
        collection: keyword/geocoding configuration (paper defaults).
        relative_risk: highlight-detection configuration.  The default
            ``min_users`` still applies per window — early windows rarely
            flag anything, exactly as a cold-started sensor should.

    The sensor is pure stream-processing: :meth:`observe` ingests one raw
    tweet (applying the full §III-A funnel) and :meth:`snapshot`
    characterizes the current window.  Eviction follows tweet timestamps,
    so replays of historical streams behave identically to live use.
    :attr:`report` holds the funnel counters of every tweet that was not
    stale.

    Out-of-order arrivals are handled exactly: the eviction horizon
    follows the *newest* timestamp seen (the stream frontier), a tweet
    already older than the horizon is rejected as stale (counted in
    :attr:`stale_dropped`, never admitted), and an in-window late
    arrival is inserted at its timestamp-sorted position — so the
    window's oldest tweet is always at the buffer's head and eviction
    can never strand an old tweet behind a newer one.
    """

    def __init__(
        self,
        window: timedelta,
        collection: CollectionConfig | None = None,
        relative_risk: RelativeRiskConfig | None = None,
    ):
        if window <= timedelta(0):
            raise ConfigError(f"window must be positive, got {window}")
        self.window = window
        self.collection = collection or CollectionConfig()
        self.relative_risk = relative_risk or RelativeRiskConfig()
        self.report = PipelineReport()
        self._funnel = Funnel(self.collection)
        self._buffer: deque[CollectedTweet] = deque()
        self._frontier: datetime | None = None
        self.seen = 0
        self.stale_dropped = 0

    def observe(self, tweet: Tweet) -> bool:
        """Ingest one tweet; returns True when it entered the window.

        A tweet whose timestamp already lies behind the current eviction
        horizon (the newest timestamp seen minus the window) is stale:
        admitting it would put an already-expired record in the window,
        and before the frontier was tracked such records could sit behind
        newer ones forever, surviving every eviction scan.  Stale tweets
        are rejected and counted instead.
        """
        self.seen += 1
        if self._frontier is None or tweet.created_at > self._frontier:
            self._frontier = tweet.created_at
        self._evict()
        if tweet.created_at < self._frontier - self.window:
            self.stale_dropped += 1
            telemetry_current().inc("sensor.stale_dropped")
            return False
        kept = self._funnel.process_batch([(0, tweet)], self.report)
        if not kept:
            return False
        record = kept[0][1]
        # Keep the buffer timestamp-sorted so eviction's head scan is
        # exact; a late arrival walks back from the tail (bounded by its
        # displacement, which transport reordering keeps small).
        position = len(self._buffer)
        while (
            position > 0
            and self._buffer[position - 1].tweet.created_at > tweet.created_at
        ):
            position -= 1
        if position == len(self._buffer):
            self._buffer.append(record)
        else:
            self._buffer.insert(position, record)
            telemetry_current().inc("sensor.late_arrivals")
        return True

    def snapshot(self) -> AwarenessSnapshot | None:
        """Characterize the current window; ``None`` while it is empty."""
        if not self._buffer:
            return None
        corpus = TweetCorpus(self._buffer)
        start, end = corpus.time_span()
        return AwarenessSnapshot(
            window_start=start,
            window_end=end,
            n_tweets=len(corpus),
            n_users=corpus.n_users,
            users_by_organ=users_per_organ(corpus),
            highlights=highlighted_organs(corpus, self.relative_risk),
        )

    def run(
        self, stream: Iterable[Tweet], emit_every: int = 1000
    ) -> Iterator[AwarenessSnapshot]:
        """Drive the sensor over a stream, yielding periodic snapshots.

        Args:
            stream: tweets in timestamp order.
            emit_every: emit a snapshot after this many *retained* tweets.
        """
        if emit_every < 1:
            raise ConfigError(f"emit_every must be >= 1, got {emit_every}")
        since_emit = 0
        for tweet in stream:
            if self.observe(tweet):
                since_emit += 1
                if since_emit >= emit_every:
                    since_emit = 0
                    snapshot = self.snapshot()
                    if snapshot is not None:
                        yield snapshot
        final = self.snapshot()
        if final is not None:
            yield final

    @property
    def retained(self) -> int:
        """Tweets admitted to the window so far."""
        return self.report.retained

    @property
    def window_size(self) -> int:
        """Tweets currently in the window."""
        return len(self._buffer)

    def _evict(self) -> None:
        """Drop every buffered tweet behind the frontier's horizon.

        The horizon follows the newest timestamp *seen* — not the
        current tweet's — so an out-of-order old arrival can never pull
        the horizon backwards; and because the buffer is kept sorted,
        the head scan provably reaches everything expired.
        """
        if self._frontier is None:
            return
        horizon = self._frontier - self.window
        while self._buffer and self._buffer[0].tweet.created_at < horizon:
            self._buffer.popleft()
