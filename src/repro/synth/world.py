"""The synthetic world: population + attention + activity + text → firehose.

:class:`SyntheticWorld` deterministically generates a population and
exposes a :meth:`~SyntheticWorld.firehose` of
:class:`repro.twitter.models.Tweet` records in timestamp order — the
stand-in for the Twitter Streaming API's undifferentiated output.  The
planted :class:`GroundTruth` stays accessible so experiments can verify
that the paper's pipeline *recovers* what was planted.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from repro.geo.cities import cities_in_state
from repro.organs import N_ORGANS, ORGANS, Organ
from repro.synth.activity import sample_timestamps_days, sample_tweet_counts
from repro.synth.attention import AttentionModel, UserAttention
from repro.synth.config import SynthConfig
from repro.synth.population import UserSeed, generate_population
from repro.synth.text import TweetTextGenerator
from repro.twitter.models import Place, Tweet, UserProfile

#: Collection start date (Table I).
COLLECTION_START = datetime(2015, 4, 22, tzinfo=timezone.utc)


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Everything that was planted, for scoring recovery.

    Attributes:
        seeds: user seeds, indexed by user id.
        attentions: ground-truth attention per user, aligned with seeds.
        tweet_counts: on-topic tweets per user, aligned with seeds.
        config: the generating configuration (includes state boosts).
    """

    seeds: tuple[UserSeed, ...]
    attentions: tuple[UserAttention, ...]
    tweet_counts: np.ndarray
    config: SynthConfig

    def focal_organ(self, user_id: int) -> Organ:
        return self.attentions[user_id].focal

    def us_user_ids(self) -> list[int]:
        return [seed.user_id for seed in self.seeds if seed.is_us]

    def state_of(self, user_id: int) -> str | None:
        return self.seeds[user_id].state

    def planted_boosts(self) -> dict[str, dict[Organ, float]]:
        """Per-state planted anomaly multipliers, keyed by organ."""
        return {
            state: {ORGANS[index]: factor for index, factor in boosts.items()}
            for state, boosts in self.config.attention.state_boosts.items()
        }


class SyntheticWorld:
    """A fully generated organ-donation twittersphere.

    Construction generates the population, attentions, and activity
    (everything except tweet text, which is rendered lazily by
    :meth:`firehose`).  All randomness derives from ``config.seed``.
    """

    def __init__(self, config: SynthConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        seeds = generate_population(config.population, self._rng)

        attention_model = AttentionModel(config.attention, self._rng)
        attentions = tuple(
            attention_model.sample(seed.state if seed.is_us else None)
            for seed in seeds
        )
        tweet_counts = sample_tweet_counts(
            len(seeds), config.activity, self._rng
        )
        self.ground_truth = GroundTruth(
            seeds=tuple(seeds),
            attentions=attentions,
            tweet_counts=tweet_counts,
            config=config,
        )
        self._profiles = tuple(
            UserProfile(
                user_id=seed.user_id,
                screen_name=seed.screen_name,
                location=seed.location,
            )
            for seed in seeds
        )

    @property
    def n_users(self) -> int:
        return len(self.ground_truth.seeds)

    @property
    def n_on_topic_tweets(self) -> int:
        return int(self.ground_truth.tweet_counts.sum())

    def firehose(self) -> Iterator[Tweet]:
        """Yield every tweet of the collection window in timestamp order.

        Includes both on-topic tweets (which the Fig. 1 keyword filter must
        admit) and off-topic tweets (which it must reject), interleaved.
        """
        config = self.config
        rng = np.random.default_rng(config.seed + 1)
        handle_pool = tuple(
            profile.screen_name for profile in self._profiles[:200]
        )
        text_gen = TweetTextGenerator(
            rng,
            alias_rate=config.text.alias_rate,
            retweet_rate=config.text.retweet_rate,
            handles=handle_pool,
        )

        counts = self.ground_truth.tweet_counts
        on_topic_authors = np.repeat(np.arange(self.n_users), counts)
        n_on_topic = on_topic_authors.size
        off_rate = config.text.off_topic_rate
        n_off_topic = int(round(n_on_topic * off_rate / max(1e-9, 1.0 - off_rate)))
        off_topic_authors = rng.integers(0, self.n_users, size=n_off_topic)

        authors = np.concatenate([on_topic_authors, off_topic_authors])
        is_off_topic = np.zeros(authors.size, dtype=bool)
        is_off_topic[n_on_topic:] = True
        order = rng.permutation(authors.size)
        authors = authors[order]
        is_off_topic = is_off_topic[order]
        day_offsets = sample_timestamps_days(authors.size, config.activity, rng)
        # Every user's cumulative attention for the per-tweet organ draw:
        # N_ORGANS entries per user in one flat list, since a list per
        # user would add tens of thousands of GC-tracked allocations.
        cumulative = (
            np.cumsum(
                [attention.distribution for attention in self.ground_truth.attentions],
                axis=1,
            )
            .ravel()
            .tolist()
        )

        # Recent on-topic tweets per organ: reply targets for
        # support-group threads (bounded ring buffers).  Reply decisions
        # draw from their own stream so enabling/disabling them leaves
        # every other realization choice untouched.
        recent_by_organ: dict[Organ, deque[int]] = {
            organ: deque(maxlen=50) for organ in ORGANS
        }
        reply_rng = np.random.default_rng(config.seed + 2)
        reply_rate = config.text.reply_rate
        for tweet_index, (author, off_topic, day_offset) in enumerate(
            zip(authors.tolist(), is_off_topic.tolist(), day_offsets.tolist())
        ):
            in_reply_to: int | None = None
            if off_topic:
                text = text_gen.off_topic()
            else:
                organs = self._sample_tweet_organs(author, cumulative, rng)
                text = text_gen.on_topic(organs)
                pool = recent_by_organ[organs[0]]
                if reply_rng.random() < reply_rate and pool:
                    in_reply_to = int(
                        pool[int(reply_rng.integers(len(pool)))]
                    )
                recent_by_organ[organs[0]].append(tweet_index)
            place = self._maybe_place(author, rng)
            yield Tweet(
                tweet_id=tweet_index,
                user=self._profiles[author],
                text=text,
                created_at=COLLECTION_START + timedelta(days=day_offset),
                place=place,
                in_reply_to=in_reply_to,
            )

    def _sample_tweet_organs(
        self, author: int, cumulative: list[float], rng: np.random.Generator
    ) -> tuple[Organ, ...]:
        """Organs mentioned by one tweet, drawn from the author's attention.

        ``cumulative`` holds every user's running attention sums,
        ``N_ORGANS`` entries per user in user order.
        """
        if rng.random() >= self.config.activity.multi_organ_tweet_rate:
            # Single-mention fast path (~97% of tweets): inverse-CDF draw.
            start = author * N_ORGANS
            end = start + N_ORGANS
            key = rng.random() * cumulative[end - 1]
            index = bisect_left(cumulative, key, start, end) - start
            return (ORGANS[min(index, N_ORGANS - 1)],)
        attention = self.ground_truth.attentions[author].distribution
        n_mentions = 2 if rng.random() < 0.8 else 3
        n_mentions = min(n_mentions, int(np.count_nonzero(attention)))
        indices = rng.choice(
            N_ORGANS, size=n_mentions, replace=False, p=attention
        )
        return tuple(ORGANS[int(index)] for index in indices)

    def _maybe_place(self, author: int, rng: np.random.Generator) -> Place | None:
        """Attach a GPS place to ~1.4% of tweets, as on real Twitter."""
        if rng.random() >= self.config.text.geotag_rate:
            return None
        seed = self.ground_truth.seeds[author]
        if seed.is_us and seed.state is not None:
            cities = cities_in_state(seed.state)
            if cities:
                city = cities[int(rng.integers(len(cities)))].title()
            else:
                city = seed.state
            return Place(full_name=f"{city}, {seed.state}", country_code="US")
        return Place(full_name=seed.location or "Unknown", country_code="XX")
