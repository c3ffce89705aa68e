"""Tests for tweet text generation."""

import numpy as np
import pytest

from repro.config import CollectionConfig
from repro.nlp.matcher import OrganMatcher
from repro.organs import ORGANS, Organ
from repro.pipeline.collect import track_filter
from repro.synth.text import OFF_TOPIC_TEMPLATES, TweetTextGenerator

#: The funnel kernel's keyword filter for the paper's query set.
_TRACK = track_filter(CollectionConfig())


@pytest.fixture()
def generator() -> TweetTextGenerator:
    return TweetTextGenerator(np.random.default_rng(0))


class TestOnTopic:
    def test_single_organ_passes_filter_and_matches(self, generator):
        matcher = OrganMatcher()
        for organ in ORGANS:
            for __ in range(30):
                text = generator.on_topic((organ,))
                assert _TRACK.matches(text), text
                assert matcher.distinct_organs(text) == {organ}, text

    def test_dual_organ_mentions_exactly_both(self, generator):
        matcher = OrganMatcher()
        for __ in range(50):
            text = generator.on_topic((Organ.HEART, Organ.KIDNEY))
            assert matcher.distinct_organs(text) == {Organ.HEART, Organ.KIDNEY}

    def test_triple_organ(self, generator):
        matcher = OrganMatcher()
        text = generator.on_topic((Organ.LIVER, Organ.LUNG, Organ.PANCREAS))
        assert matcher.distinct_organs(text) == {
            Organ.LIVER, Organ.LUNG, Organ.PANCREAS,
        }

    def test_alias_rate_zero_uses_canonical_names(self):
        generator = TweetTextGenerator(np.random.default_rng(1), alias_rate=0.0)
        for __ in range(20):
            text = generator.on_topic((Organ.KIDNEY,))
            assert "kidney" in text.lower()

    def test_alias_rate_one_varies_surface_forms(self):
        generator = TweetTextGenerator(np.random.default_rng(2), alias_rate=1.0)
        surfaces = {generator.on_topic((Organ.LUNG,)) for __ in range(100)}
        joined = " ".join(surfaces).lower()
        assert "lungs" in joined or "pulmonary" in joined


class TestRetweets:
    def test_retweet_rate_zero_never_prefixes(self):
        generator = TweetTextGenerator(np.random.default_rng(3))
        for __ in range(50):
            assert not generator.on_topic((Organ.HEART,)).startswith("RT @")

    def test_retweet_rate_one_always_prefixes(self):
        generator = TweetTextGenerator(
            np.random.default_rng(4), retweet_rate=1.0,
            handles=("donor_mom",),
        )
        text = generator.on_topic((Organ.KIDNEY,))
        assert text.startswith("RT @donor_mom: ")

    def test_retweets_preserve_mentions_and_filter(self):
        generator = TweetTextGenerator(
            np.random.default_rng(5), retweet_rate=1.0,
        )
        matcher = OrganMatcher()
        for organ in ORGANS:
            text = generator.on_topic((organ,))
            assert _TRACK.matches(text), text
            assert matcher.distinct_organs(text) == {organ}, text

    def test_fallback_handles_used_when_pool_empty(self):
        generator = TweetTextGenerator(
            np.random.default_rng(6), retweet_rate=1.0, handles=(),
        )
        assert generator.on_topic((Organ.LUNG,)).startswith("RT @")


class TestOffTopic:
    def test_off_topic_always_fails_filter(self, generator):
        for __ in range(100):
            assert not _TRACK.matches(generator.off_topic())

    def test_every_template_fails_filter(self):
        for template in OFF_TOPIC_TEMPLATES:
            assert not _TRACK.matches(template), template
