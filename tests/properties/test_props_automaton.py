"""Property tests: the hot path ≡ the naive reference scans.

Four equivalences, each locked over randomized inputs and over the
distinct texts of a small synthetic firehose:

* :func:`scan_words_hashtags` ≡ :func:`words_and_hashtags`, the
  WORD/HASHTAG projection of :func:`tokenize`;
* :meth:`TermVocabulary.present` ≡ :func:`present_terms` for randomized
  vocabularies with deliberately overlapping terms (``organ`` inside
  ``organdonor``) against texts that glue those terms into hashtags;
* :meth:`TrackFilter.matches` ≡ :func:`track_matches` on the production
  track phrases;
* :meth:`OrganMatcher.mentions` ≡ :func:`organ_mentions`.

The oracles live in :mod:`tests.nlp.oracles`.  The randomized suites
run under three fixed seeds so a regression reproduces
deterministically from the failing test id alone.
"""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CollectionConfig
from repro.nlp.automaton import TermVocabulary
from repro.nlp.matcher import OrganMatcher
from repro.nlp.tokenize import scan_words_hashtags
from repro.organs import ALIASES
from repro.pipeline.collect import track_filter
from repro.synth.scenarios import paper2016_scenario
from repro.synth.world import SyntheticWorld
from tests.nlp.oracles import (
    organ_mentions,
    present_terms,
    track_matches,
    words_and_hashtags,
)

_MATCHER = OrganMatcher()
_TRACK = track_filter(CollectionConfig())

tweet_text = st.text(
    alphabet=string.ascii_letters + string.digits + " #@.,'!-:/🙏❤🌍",
    max_size=200,
)

#: Overlapping stems: every prefix relation the automaton's failure
#: links must handle (term inside term, term as prefix, term as suffix).
_STEMS = (
    "organ", "organdonor", "organdonation", "donor", "donate",
    "donatelife", "kidney", "kidneydonor", "heart", "hearttransplant",
    "art", "ran", "transplant",
)


@pytest.fixture(scope="module")
def firehose_texts() -> list[str]:
    """The first 2,000 distinct texts of a small synthetic firehose."""
    world = SyntheticWorld(paper2016_scenario(scale=0.015, seed=7))
    texts = list(dict.fromkeys(tweet.text for tweet in world.firehose()))
    assert len(texts) >= 2_000
    return texts[:2_000]


def _random_vocabulary(rng: random.Random) -> list[str]:
    size = rng.randint(2, 9)
    return rng.sample(_STEMS, size)


def _random_text(rng: random.Random, vocabulary: list[str]) -> str:
    """Text mixing plain terms, glued hashtags, compounds, and noise."""
    pieces = []
    for __ in range(rng.randint(1, 12)):
        roll = rng.random()
        term = rng.choice(vocabulary)
        if roll < 0.3:
            pieces.append(term)
        elif roll < 0.5:
            # Glued hashtag: two terms fused — the substring case.
            pieces.append(f"#{term}{rng.choice(vocabulary)}")
        elif roll < 0.6:
            pieces.append(f"#{term}")
        elif roll < 0.7:
            pieces.append(f"{term}-{rng.choice(vocabulary)}")
        elif roll < 0.8:
            # Term embedded in a longer plain word: must NOT match.
            pieces.append(f"{term}ized")
        else:
            pieces.append(
                "".join(
                    rng.choices(string.ascii_lowercase, k=rng.randint(1, 8))
                )
            )
    return " ".join(pieces)


class TestTokenizerEquivalence:
    @given(st.one_of(tweet_text, st.text(max_size=200)))
    @settings(max_examples=400)
    def test_scan_equals_tokenize_projection(self, text):
        assert scan_words_hashtags(text) == words_and_hashtags(text)


class TestSyntheticFirehoseTexts:
    def test_scan_equals_tokenize_projection(self, firehose_texts):
        for text in firehose_texts:
            assert scan_words_hashtags(text) == words_and_hashtags(text), (
                f"divergence on text={text!r}"
            )

    def test_track_filter_equals_naive(self, firehose_texts):
        for text in firehose_texts:
            assert _TRACK.matches(text) == track_matches(_TRACK, text), (
                f"divergence on text={text!r}"
            )

    def test_matcher_equals_naive(self, firehose_texts):
        for text in firehose_texts:
            assert _MATCHER.mentions(text) == organ_mentions(ALIASES, text), (
                f"divergence on text={text!r}"
            )


class TestVocabularyEquivalence:
    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_randomized_vocabularies_match_naive(self, seed):
        rng = random.Random(seed)
        for __ in range(150):
            vocabulary = _random_vocabulary(rng)
            compiled = TermVocabulary(vocabulary)
            for __ in range(10):
                text = _random_text(rng, vocabulary)
                assert set(compiled.present(text)) == present_terms(
                    text, vocabulary
                ), f"divergence on vocabulary={vocabulary!r} text={text!r}"

    @given(tweet_text)
    @settings(max_examples=200)
    def test_arbitrary_text_matches_naive(self, text):
        vocabulary = ("organ", "organdonor", "donor", "kidney", "be")
        compiled = TermVocabulary(vocabulary)
        assert set(compiled.present(text)) == present_terms(text, vocabulary)

    def test_overlapping_terms_in_glued_hashtag(self):
        vocabulary = ("organ", "organdonor", "donor")
        compiled = TermVocabulary(vocabulary)
        assert compiled.present("#organdonor") == frozenset(vocabulary)


class TestTrackFilterEquivalence:
    @given(tweet_text)
    @settings(max_examples=200)
    def test_matches_equals_naive(self, text):
        assert _TRACK.matches(text) == track_matches(_TRACK, text)

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_randomized_texts_over_production_phrases(self, seed):
        rng = random.Random(seed)
        vocabulary = list(_STEMS)
        for __ in range(300):
            text = _random_text(rng, vocabulary)
            assert _TRACK.matches(text) == track_matches(_TRACK, text), (
                f"divergence on text={text!r}"
            )


class TestMatcherEquivalence:
    @given(tweet_text)
    @settings(max_examples=200)
    def test_mentions_equals_naive(self, text):
        assert _MATCHER.mentions(text) == organ_mentions(ALIASES, text)

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_randomized_organ_texts(self, seed):
        rng = random.Random(seed)
        vocabulary = ["kidney", "liver", "heart", "lung", "pancreas", "cornea"]
        for __ in range(300):
            text = _random_text(rng, vocabulary)
            assert _MATCHER.mentions(text) == organ_mentions(ALIASES, text), (
                f"divergence on text={text!r}"
            )
