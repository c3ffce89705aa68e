"""The synthetic world draws exactly what the ``rng.choice`` reference draws.

:class:`repro.synth.world.SyntheticWorld` makes its draws through
precomputed cdfs, per-user cumulative attention and index tables; the
reference in :mod:`tests.synth.oracles` makes the same draws through
numpy's plain per-call forms.  At three seeds both must plant the same
ground truth, emit the same firehose lines and leave every generator in
the same state.  The comparison is against the reference, not against
stored digests, because numpy does not promise the same ``Generator``
stream across versions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nlp.matcher import OrganMatcher
from repro.synth.attention import Archetype
from repro.synth.scenarios import paper2016_scenario
from repro.synth.world import SyntheticWorld
from tests.synth.oracles import OracleWorld

SEEDS = (1, 2, 3)
SCALE = 0.005


@pytest.fixture(scope="module", params=SEEDS)
def pair(request):
    config = paper2016_scenario(scale=SCALE, seed=request.param)
    made: list[np.random.Generator] = []
    default_rng = np.random.default_rng

    def recording_default_rng(seed):
        rng = default_rng(seed)
        made.append(rng)
        return rng

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording_default_rng)
        world = SyntheticWorld(config)
        lines = [tweet.to_json() for tweet in world.firehose()]
    oracle = OracleWorld(config)
    oracle_tweets = list(oracle.firehose())
    return world, made, lines, oracle, oracle_tweets


def test_same_users(pair):
    world, __, __, oracle, __ = pair
    assert world.ground_truth.seeds == oracle.seeds


def test_same_attention(pair):
    world, __, __, oracle, __ = pair
    fast = world.ground_truth.attentions
    assert [(a.archetype, a.focal, a.secondary) for a in fast] == [
        (a.archetype, a.focal, a.secondary) for a in oracle.attentions
    ]
    assert [a.distribution.tobytes() for a in fast] == [
        a.distribution.tobytes() for a in oracle.attentions
    ]


def test_same_tweet_counts(pair):
    world, __, __, oracle, __ = pair
    counts = world.ground_truth.tweet_counts
    assert counts.dtype == oracle.tweet_counts.dtype
    assert counts.tobytes() == oracle.tweet_counts.tobytes()


def test_same_firehose_lines(pair):
    __, __, lines, __, oracle_tweets = pair
    assert len(lines) == len(oracle_tweets)
    assert lines == [tweet.to_json() for tweet in oracle_tweets]


def test_generators_end_in_the_same_state(pair):
    __, made, __, oracle, __ = pair
    assert len(made) == len(oracle.rngs) == 3
    assert [rng.bit_generator.state for rng in made] == [
        rng.bit_generator.state for rng in oracle.rngs
    ]


def test_every_rewritten_draw_is_exercised(pair):
    """The scale is large enough that each replaced draw runs."""
    __, __, __, oracle, tweets = pair
    archetypes = {attention.archetype for attention in oracle.attentions}
    assert archetypes == set(Archetype)
    assert {tweet.place.country_code for tweet in tweets if tweet.place} == {
        "US", "XX",
    }
    matcher = OrganMatcher()
    assert any(len(matcher.distinct_organs(tweet.text)) >= 2 for tweet in tweets)
    assert any(not seed.is_us for seed in oracle.seeds)
