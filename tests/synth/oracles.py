"""Reference generator: the synthetic world's draws in their ``rng.choice`` form.

:class:`OracleWorld` makes, from the same seeds and in the same order,
every draw :class:`repro.synth.world.SyntheticWorld` makes: the
population, the ground-truth attention, the tweet counts and the
firehose.  It keeps the plain numpy forms the generator's fast path
replaced: ``Generator.choice`` with a ``p`` vector (validated and turned
into a cdf on every call), ``Generator.choice`` over a sequence, a
per-tweet ``cumsum``/``searchsorted``, a linear scan of the city table
per lookup and the ``np.sort`` timestamp draw.  The differential test
holds the fast path to it.

It reads the package's data tables, record types and the state
weights; every draw is written out here, so a change to the generator's
code cannot move the oracle with it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from datetime import timedelta

import numpy as np

from repro.geo.cities import CITY_TO_STATE
from repro.geo.gazetteer import STATES, StateInfo
from repro.geo.geocoder import FOREIGN_LOCATIONS
from repro.geo.noise import _EMOJI, JUNK_LOCATIONS
from repro.organs import N_ORGANS, ORGANS, Organ
from repro.synth.attention import CO_ATTENTION, DUAL_PARTNER, Archetype, UserAttention
from repro.synth.config import AttentionConfig, PopulationConfig, SynthConfig
from repro.synth.population import (
    _HANDLE_PREFIXES,
    _HANDLE_SUFFIXES,
    UserSeed,
    state_weights,
)
from repro.synth.text import (
    _DUAL_TEMPLATES,
    _SINGLE_TEMPLATES,
    _SURFACE_FORMS,
    _TRIPLE_TEMPLATES,
    OFF_TOPIC_TEMPLATES,
)
from repro.synth.world import COLLECTION_START
from repro.twitter.models import Place, Tweet, UserProfile


def cities_in_state(abbrev: str) -> tuple[str, ...]:
    code = abbrev.strip().upper()
    return tuple(city for city, state in CITY_TO_STATE.items() if state == code)


class LocationStyler:
    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def style_us(self, state: StateInfo) -> str:
        roll = self._rng.random()
        if roll < 0.30:
            text = f"{self._pick_city(state).title()}, {state.abbrev}"
        elif roll < 0.45:
            text = state.name
        elif roll < 0.55:
            text = state.abbrev
        elif roll < 0.70:
            text = self._pick_city(state).title()
        elif roll < 0.80:
            text = f"{state.name}, USA"
        elif roll < 0.88 and state.nicknames:
            text = str(self._rng.choice(state.nicknames))
        else:
            text = f"{self._pick_city(state).title()}, {state.name}"
        return self._decorate(text)

    def style_junk(self) -> str:
        return str(self._rng.choice(JUNK_LOCATIONS))

    def _pick_city(self, state: StateInfo) -> str:
        cities = cities_in_state(state.abbrev)
        if not cities:
            return state.name
        city = str(self._rng.choice(cities))
        if city.endswith(f" {state.abbrev.lower()}"):
            city = city[: -(len(state.abbrev) + 1)]
        return city

    def _decorate(self, text: str) -> str:
        roll = self._rng.random()
        if roll < 0.12:
            text = text.lower() if text.upper() != text else text
        elif roll < 0.18:
            text = text.upper() if len(text) > 2 else text
        if self._rng.random() < 0.08:
            text = f"{text} {self._rng.choice(_EMOJI)}"
        return text


def screen_name(user_id: int, rng: np.random.Generator) -> str:
    prefix = _HANDLE_PREFIXES[int(rng.integers(len(_HANDLE_PREFIXES)))]
    suffix = _HANDLE_SUFFIXES[int(rng.integers(len(_HANDLE_SUFFIXES)))]
    return f"{prefix}_{suffix}_{user_id}"


def generate_population(
    config: PopulationConfig, rng: np.random.Generator
) -> list[UserSeed]:
    n_us = int(round(config.n_users * config.us_fraction))
    styler = LocationStyler(rng)
    foreign_locations = tuple(FOREIGN_LOCATIONS)
    state_indices = rng.choice(
        len(STATES), size=n_us, p=state_weights(config.midwest_bias)
    )
    seeds: list[UserSeed] = []
    for user_id, state_index in enumerate(state_indices):
        state = STATES[int(state_index)]
        if rng.random() < config.junk_location_rate:
            location = "" if rng.random() < 0.4 else styler.style_junk()
        else:
            location = styler.style_us(state)
        seeds.append(
            UserSeed(user_id, screen_name(user_id, rng), True, state.abbrev, location)
        )
    for user_id in range(n_us, config.n_users):
        location = str(rng.choice(foreign_locations)).title()
        seeds.append(UserSeed(user_id, screen_name(user_id, rng), False, None, location))
    return seeds


def _one_hot(index: int) -> np.ndarray:
    vec = np.zeros(N_ORGANS)
    vec[index] = 1.0
    return vec


def sample_attention(
    config: AttentionConfig, rng: np.random.Generator, state: str | None
) -> UserAttention:
    roll = rng.random()
    prior = np.array(config.national_prior, dtype=float)
    for organ_index, multiplier in config.state_boosts.get(state or "", {}).items():
        prior[organ_index] *= multiplier
    prior = prior / prior.sum()
    focal_index = int(rng.choice(N_ORGANS, p=prior))
    secondary_index = None
    if roll < config.archetype_probs[0]:
        archetype = Archetype.SINGLE_FOCUS
        base = (
            config.focal_weight * _one_hot(focal_index)
            + (1.0 - config.focal_weight) * CO_ATTENTION[focal_index]
        )
    elif roll < config.archetype_probs[0] + config.archetype_probs[1]:
        archetype = Archetype.DUAL_FOCUS
        secondary_index = int(rng.choice(N_ORGANS, p=DUAL_PARTNER[focal_index]))
        base = (1.0 - config.dual_secondary_weight) * _one_hot(focal_index)
        base = base + config.dual_secondary_weight * _one_hot(secondary_index)
        base = 0.96 * base + 0.04 * CO_ATTENTION[focal_index]
    else:
        archetype = Archetype.BROAD
        base = 0.75 * np.array(config.national_prior) + 0.25 * _one_hot(focal_index)
    distribution = rng.dirichlet(base * config.dirichlet_concentration)
    if archetype is not Archetype.BROAD:
        top = int(np.argmax(distribution))
        if top != focal_index:
            distribution[[top, focal_index]] = distribution[[focal_index, top]]
    return UserAttention(
        archetype=archetype,
        focal=ORGANS[focal_index],
        secondary=None if secondary_index is None else ORGANS[secondary_index],
        distribution=distribution,
    )


class TextGenerator:
    def __init__(
        self,
        rng: np.random.Generator,
        alias_rate: float,
        retweet_rate: float,
        handles: tuple[str, ...],
    ):
        self._rng = rng
        self._alias_rate = alias_rate
        self._retweet_rate = retweet_rate
        self._handles = handles or ("donatelife", "unos_news", "organdonor_gov")

    def on_topic(self, organs: tuple[Organ, ...]) -> str:
        body = self._body(organs)
        if self._retweet_rate and self._rng.random() < self._retweet_rate:
            handle = self._handles[int(self._rng.integers(len(self._handles)))]
            return f"RT @{handle}: {body}"
        return body

    def _body(self, organs: tuple[Organ, ...]) -> str:
        if len(organs) == 1:
            template = _SINGLE_TEMPLATES[int(self._rng.integers(len(_SINGLE_TEMPLATES)))]
            return template.format(o1=self._surface(organs[0]), g1=organs[0].value)
        if len(organs) == 2:
            template = _DUAL_TEMPLATES[int(self._rng.integers(len(_DUAL_TEMPLATES)))]
            return template.format(
                o1=self._surface(organs[0]), o2=self._surface(organs[1])
            )
        template = _TRIPLE_TEMPLATES[int(self._rng.integers(len(_TRIPLE_TEMPLATES)))]
        return template.format(
            o1=self._surface(organs[0]),
            o2=self._surface(organs[1]),
            o3=self._surface(organs[2]),
        )

    def off_topic(self) -> str:
        return OFF_TOPIC_TEMPLATES[int(self._rng.integers(len(OFF_TOPIC_TEMPLATES)))]

    def _surface(self, organ: Organ) -> str:
        forms = tuple(form for form, __ in _SURFACE_FORMS[organ])
        weights = np.array([weight for __, weight in _SURFACE_FORMS[organ]])
        if self._rng.random() >= self._alias_rate:
            return organ.value
        return forms[int(self._rng.choice(len(forms), p=weights / weights.sum()))]


def sample_tweet_organs(
    attention: np.ndarray, multi_organ_rate: float, rng: np.random.Generator
) -> tuple[Organ, ...]:
    if rng.random() >= multi_organ_rate:
        cumulative = np.cumsum(attention)
        index = int(np.searchsorted(cumulative, rng.random() * cumulative[-1]))
        return (ORGANS[min(index, N_ORGANS - 1)],)
    n_mentions = 2 if rng.random() < 0.8 else 3
    n_mentions = min(n_mentions, int(np.count_nonzero(attention)))
    indices = rng.choice(N_ORGANS, size=n_mentions, replace=False, p=attention)
    return tuple(ORGANS[int(index)] for index in indices)


def maybe_place(seed: UserSeed, geotag_rate: float, rng: np.random.Generator) -> Place | None:
    if rng.random() >= geotag_rate:
        return None
    if seed.is_us and seed.state is not None:
        cities = cities_in_state(seed.state)
        city = str(rng.choice(cities)).title() if cities else seed.state
        return Place(full_name=f"{city}, {seed.state}", country_code="US")
    return Place(full_name=seed.location or "Unknown", country_code="XX")


class OracleWorld:
    """The reference world; :attr:`rngs` holds every generator it made, in order."""

    def __init__(self, config: SynthConfig):
        self.config = config
        self.rngs = [np.random.default_rng(config.seed)]
        rng = self.rngs[0]
        self.seeds = tuple(generate_population(config.population, rng))
        self.attentions = tuple(
            sample_attention(config.attention, rng, seed.state if seed.is_us else None)
            for seed in self.seeds
        )
        activity = config.activity
        self.tweet_counts = np.minimum(
            rng.zipf(activity.zipf_exponent, size=len(self.seeds)),
            activity.max_tweets_per_user,
        ).astype(np.int64)
        self.profiles = tuple(
            UserProfile(seed.user_id, seed.screen_name, seed.location)
            for seed in self.seeds
        )

    def firehose(self) -> Iterator[Tweet]:
        config = self.config
        n_users = len(self.seeds)
        rng = np.random.default_rng(config.seed + 1)
        self.rngs.append(rng)
        text_gen = TextGenerator(
            rng,
            config.text.alias_rate,
            config.text.retweet_rate,
            tuple(profile.screen_name for profile in self.profiles[:200]),
        )
        on_topic_authors = np.repeat(np.arange(n_users), self.tweet_counts)
        n_on_topic = on_topic_authors.size
        off_rate = config.text.off_topic_rate
        n_off_topic = int(round(n_on_topic * off_rate / max(1e-9, 1.0 - off_rate)))
        off_topic_authors = rng.integers(0, n_users, size=n_off_topic)
        authors = np.concatenate([on_topic_authors, off_topic_authors])
        is_off_topic = np.zeros(authors.size, dtype=bool)
        is_off_topic[n_on_topic:] = True
        order = rng.permutation(authors.size)
        authors = authors[order]
        is_off_topic = is_off_topic[order]
        day_offsets = np.sort(rng.random(authors.size) * config.activity.days)

        recent_by_organ: dict[Organ, deque[int]] = {
            organ: deque(maxlen=50) for organ in ORGANS
        }
        reply_rng = np.random.default_rng(config.seed + 2)
        self.rngs.append(reply_rng)
        for tweet_index in range(authors.size):
            author = int(authors[tweet_index])
            in_reply_to: int | None = None
            if is_off_topic[tweet_index]:
                text = text_gen.off_topic()
            else:
                organs = sample_tweet_organs(
                    self.attentions[author].distribution,
                    config.activity.multi_organ_tweet_rate,
                    rng,
                )
                text = text_gen.on_topic(organs)
                pool = recent_by_organ[organs[0]]
                if reply_rng.random() < config.text.reply_rate and pool:
                    in_reply_to = int(pool[int(reply_rng.integers(len(pool)))])
                pool.append(tweet_index)
            place = maybe_place(self.seeds[author], config.text.geotag_rate, rng)
            yield Tweet(
                tweet_id=tweet_index,
                user=self.profiles[author],
                text=text,
                created_at=COLLECTION_START + timedelta(days=float(day_offsets[tweet_index])),
                place=place,
                in_reply_to=in_reply_to,
            )
