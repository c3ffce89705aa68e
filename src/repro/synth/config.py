"""Configuration dataclasses for the synthetic world.

Every stochastic choice in :mod:`repro.synth` is governed by a field here,
so a :class:`SynthConfig` plus a seed fully determines a generated world.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.organs import N_ORGANS


def _require_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value}")


def check_seed(seed: int) -> None:
    """Raise :class:`ConfigError` unless ``seed`` is >= 0, as numpy's seeding requires."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True, slots=True)
class PopulationConfig:
    """Who tweets about organ donation.

    Attributes:
        n_users: total users worldwide emitting on-topic tweets.
        us_fraction: fraction of users based in the USA.
        junk_location_rate: fraction of US users whose profile location is
            a joke/empty string that cannot be geocoded.
        midwest_bias: multiplier (<1) on Midwest state weights, reproducing
            the Twitter under-representation of the Midwest the paper's
            limitations section cites (Mislove et al.).
    """

    n_users: int = 5000
    us_fraction: float = 0.158
    junk_location_rate: float = 0.10
    midwest_bias: float = 0.80

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ConfigError(f"n_users must be >= 1, got {self.n_users}")
        _require_probability("us_fraction", self.us_fraction)
        _require_probability("junk_location_rate", self.junk_location_rate)
        if self.midwest_bias <= 0:
            raise ConfigError(f"midwest_bias must be > 0, got {self.midwest_bias}")


@dataclass(frozen=True, slots=True)
class AttentionConfig:
    """Ground-truth organ attention of the population.

    Attributes:
        national_prior: baseline probability that a user's *focal* organ is
            each of the six organs, in canonical organ order.  The default
            plants the paper's Twitter popularity order (heart first,
            intestine last) including the heart inversion vs transplant
            volume.
        state_boosts: per-state multiplicative boosts on the prior,
            ``{state_code: {organ_index: multiplier}}`` — the planted
            geographic anomalies (e.g. the Kansas kidney excess).
        archetype_probs: probability that a user is single-focus, dual-focus,
            or a broad advocate, in that order.
        focal_weight: attention mass a single-focus user puts on the focal
            organ (before Dirichlet noise).
        dual_secondary_weight: attention mass a dual-focus user puts on the
            secondary organ.
        dirichlet_concentration: sharpness of per-user Dirichlet noise
            around the archetype profile; larger = less noise.
    """

    national_prior: tuple[float, ...] = (0.34, 0.26, 0.16, 0.12, 0.08, 0.04)
    state_boosts: dict[str, dict[int, float]] = field(default_factory=dict)
    archetype_probs: tuple[float, float, float] = (0.90, 0.07, 0.03)
    focal_weight: float = 0.88
    dual_secondary_weight: float = 0.38
    dirichlet_concentration: float = 60.0

    def __post_init__(self) -> None:
        if len(self.national_prior) != N_ORGANS:
            raise ConfigError(
                f"national_prior must have {N_ORGANS} entries, "
                f"got {len(self.national_prior)}"
            )
        if any(p < 0 for p in self.national_prior):
            raise ConfigError("national_prior entries must be >= 0")
        if abs(sum(self.national_prior) - 1.0) > 1e-6:
            raise ConfigError("national_prior must sum to 1")
        if abs(sum(self.archetype_probs) - 1.0) > 1e-6:
            raise ConfigError("archetype_probs must sum to 1")
        _require_probability("focal_weight", self.focal_weight)
        _require_probability("dual_secondary_weight", self.dual_secondary_weight)
        if self.dirichlet_concentration <= 0:
            raise ConfigError("dirichlet_concentration must be > 0")


@dataclass(frozen=True, slots=True)
class ActivityConfig:
    """How much users tweet.

    Attributes:
        zipf_exponent: exponent of the per-user tweet-count Zipf law;
            2.53 calibrates the mean to the paper's 1.88 tweets/user
            (ζ(1.53)/ζ(2.53) = 1.88) while keeping the heavy tail (a few
            users post hundreds of tweets).
        max_tweets_per_user: tail cap, bounding worst-case generation cost.
        multi_organ_tweet_rate: probability a tweet mentions more than one
            organ; 0.03 calibrates organs/tweet to the paper's 1.03.
        days: collection window length (Table I: 385 days).
    """

    zipf_exponent: float = 2.53
    max_tweets_per_user: int = 500
    multi_organ_tweet_rate: float = 0.03
    days: int = 385

    def __post_init__(self) -> None:
        if self.zipf_exponent <= 2.0:
            # mean of the Zipf law diverges at 2; keep it finite.
            raise ConfigError(
                f"zipf_exponent must be > 2, got {self.zipf_exponent}"
            )
        if self.max_tweets_per_user < 1:
            raise ConfigError("max_tweets_per_user must be >= 1")
        _require_probability("multi_organ_tweet_rate", self.multi_organ_tweet_rate)
        if self.days < 1:
            raise ConfigError(f"days must be >= 1, got {self.days}")


@dataclass(frozen=True, slots=True)
class TextConfig:
    """How tweet text is rendered.

    Attributes:
        off_topic_rate: fraction of firehose tweets that are off-topic
            (fail the Context × Subject filter); exercises collection.
        geotag_rate: fraction of tweets carrying a GPS place object
            (Morstatter et al. report ~1.4%).
        alias_rate: probability an organ is rendered as a non-canonical
            surface form (plural, adjective, glued hashtag).
        retweet_rate: probability an on-topic tweet is rendered as a
            retweet ("RT @handle: …").  The retweeted content is sampled
            from the retweeter's own attention (people amplify content
            aligned with their interests), so every calibrated statistic
            is unchanged while the NLP layer sees realistic RT syntax.
        reply_rate: probability an on-topic tweet replies to a recent
            on-topic tweet about the same organ (support-group threads,
            the conversation structure of the paper's ref [13]).  Reply
            text is generated like any on-topic tweet, so calibrated
            statistics are unchanged.
    """

    off_topic_rate: float = 0.15
    geotag_rate: float = 0.014
    alias_rate: float = 0.25
    retweet_rate: float = 0.12
    reply_rate: float = 0.10

    def __post_init__(self) -> None:
        _require_probability("off_topic_rate", self.off_topic_rate)
        _require_probability("geotag_rate", self.geotag_rate)
        _require_probability("alias_rate", self.alias_rate)
        _require_probability("retweet_rate", self.retweet_rate)
        _require_probability("reply_rate", self.reply_rate)


@dataclass(frozen=True, slots=True)
class SynthConfig:
    """Full synthetic-world configuration."""

    population: PopulationConfig = field(default_factory=PopulationConfig)
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    activity: ActivityConfig = field(default_factory=ActivityConfig)
    text: TextConfig = field(default_factory=TextConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        check_seed(self.seed)
