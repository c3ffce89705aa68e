"""Tests for the synthetic world and its firehose."""

import pytest

from repro.config import CollectionConfig
from repro.pipeline.collect import track_filter
from repro.synth.config import (
    ActivityConfig,
    AttentionConfig,
    PopulationConfig,
    SynthConfig,
    TextConfig,
)
from repro.synth.world import COLLECTION_START, SyntheticWorld

#: The funnel kernel's keyword filter for the paper's query set.
_TRACK = track_filter(CollectionConfig())


@pytest.fixture(scope="module")
def world() -> SyntheticWorld:
    config = SynthConfig(
        population=PopulationConfig(n_users=800, us_fraction=0.5),
        seed=21,
    )
    return SyntheticWorld(config)


@pytest.fixture(scope="module")
def tweets(world):
    return list(world.firehose())


class TestWorldConstruction:
    def test_ground_truth_aligned(self, world):
        truth = world.ground_truth
        assert len(truth.seeds) == len(truth.attentions) == world.n_users
        assert truth.tweet_counts.shape == (world.n_users,)

    def test_deterministic_per_seed(self):
        config = SynthConfig(population=PopulationConfig(n_users=120), seed=5)
        first = [t.text for t in SyntheticWorld(config).firehose()]
        second = [t.text for t in SyntheticWorld(config).firehose()]
        assert first == second

    def test_different_seeds_differ(self):
        base = SynthConfig(population=PopulationConfig(n_users=120), seed=1)
        other = SynthConfig(population=PopulationConfig(n_users=120), seed=2)
        assert [t.text for t in SyntheticWorld(base).firehose()] != [
            t.text for t in SyntheticWorld(other).firehose()
        ]


class TestFirehose:
    def test_tweet_count_includes_off_topic(self, world, tweets):
        on_topic = world.n_on_topic_tweets
        rate = world.config.text.off_topic_rate
        expected_off = round(on_topic * rate / (1 - rate))
        assert len(tweets) == on_topic + expected_off

    def test_timestamps_sorted_and_in_window(self, world, tweets):
        times = [t.created_at for t in tweets]
        assert times == sorted(times)
        assert times[0] >= COLLECTION_START
        assert (times[-1] - COLLECTION_START).days < world.config.activity.days

    def test_off_topic_fraction_fails_filter(self, tweets):
        failing = sum(not _TRACK.matches(t.text) for t in tweets)
        assert failing / len(tweets) == pytest.approx(0.15, abs=0.03)

    def test_tweet_ids_unique(self, tweets):
        ids = [t.tweet_id for t in tweets]
        assert len(set(ids)) == len(ids)

    def test_authors_are_known_users(self, world, tweets):
        assert all(0 <= t.user.user_id < world.n_users for t in tweets)

    def test_geotag_rate_near_config(self, world, tweets):
        tagged = sum(t.place is not None for t in tweets)
        assert tagged / len(tweets) == pytest.approx(
            world.config.text.geotag_rate, abs=0.01
        )

    def test_profile_location_carried_on_tweets(self, world, tweets):
        seeds = world.ground_truth.seeds
        for t in tweets[:200]:
            assert t.user.location == seeds[t.user.user_id].location


class TestGroundTruthAccessors:
    def test_us_user_ids(self, world):
        truth = world.ground_truth
        us_ids = truth.us_user_ids()
        assert all(truth.seeds[uid].is_us for uid in us_ids)
        assert len(us_ids) == 400  # us_fraction 0.5 of 800

    def test_state_of(self, world):
        truth = world.ground_truth
        for uid in truth.us_user_ids()[:20]:
            assert truth.state_of(uid) is not None

    def test_planted_boosts_keyed_by_organ(self):
        config = SynthConfig(
            population=PopulationConfig(n_users=60),
            attention=AttentionConfig(state_boosts={"KS": {1: 2.0}}),
        )
        world = SyntheticWorld(config)
        boosts = world.ground_truth.planted_boosts()
        from repro.organs import Organ

        assert boosts == {"KS": {Organ.KIDNEY: 2.0}}


class TestCalibration:
    def test_organs_per_tweet_near_paper(self, world, tweets):
        """Table I: 1.03 distinct organs per (on-topic) tweet."""
        from repro.nlp.matcher import OrganMatcher

        matcher = OrganMatcher()
        counts = [
            len(matcher.distinct_organs(t.text))
            for t in tweets
            if _TRACK.matches(t.text)
        ]
        mean = sum(counts) / len(counts)
        assert mean == pytest.approx(1.03, abs=0.03)
