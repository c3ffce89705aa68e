"""Synthetic user population.

Generates the people behind the tweets: US users distributed over states
proportionally to population (with the Midwest damped, per the Twitter
demographic bias the paper cites) and foreign users who will be discarded
by the pipeline's US filter, as ~86% of the paper's collected tweets were.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.gazetteer import STATES, CensusRegion, StateInfo
from repro.geo.geocoder import FOREIGN_LOCATIONS
from repro.geo.noise import LocationStyler
from repro.synth.config import PopulationConfig

_HANDLE_PREFIXES = (
    "donor", "hope", "health", "life", "organ", "heart", "kind", "give",
    "care", "true", "sunny", "real", "daily", "the", "just", "mighty",
)
_HANDLE_SUFFIXES = (
    "mom", "dad", "fan", "warrior", "advocate", "nurse", "runner", "writer",
    "girl", "guy", "life", "journey", "story", "voice", "hope", "fighter",
)


@dataclass(frozen=True, slots=True)
class UserSeed:
    """A generated user before attention/activity assignment.

    Attributes:
        user_id: globally unique id.
        screen_name: Twitter handle.
        is_us: whether the user truly lives in the USA (ground truth).
        state: ground-truth USPS state code for US users, else ``None``.
        location: profile location string as the geocoder will see it;
            may be junk even for US users.
    """

    user_id: int
    screen_name: str
    is_us: bool
    state: str | None
    location: str


def state_weights(midwest_bias: float) -> np.ndarray:
    """Sampling weight per gazetteer state: population × regional bias."""
    weights = np.array([float(state.population) for state in STATES])
    for index, state in enumerate(STATES):
        if state.region is CensusRegion.MIDWEST:
            weights[index] *= midwest_bias
    return weights / weights.sum()


def generate_population(
    config: PopulationConfig, rng: np.random.Generator
) -> list[UserSeed]:
    """Generate the full user population for one synthetic world.

    US users receive a styled location string (or junk at the configured
    rate); foreign users receive a foreign location string.  The ground
    truth (``is_us``, ``state``) is retained on every seed so experiments
    can score the geocoder and the pipeline's US filter.
    """
    n_us = int(round(config.n_users * config.us_fraction))
    n_foreign = config.n_users - n_us
    styler = LocationStyler(rng)
    foreign_locations = tuple(FOREIGN_LOCATIONS)

    weights = state_weights(config.midwest_bias)
    state_indices = rng.choice(len(STATES), size=n_us, p=weights)

    seeds: list[UserSeed] = []
    for user_id, state_index in enumerate(state_indices):
        state: StateInfo = STATES[int(state_index)]
        if rng.random() < config.junk_location_rate:
            location = "" if rng.random() < 0.4 else styler.style_junk()
        else:
            location = styler.style_us(state)
        seeds.append(
            UserSeed(
                user_id=user_id,
                screen_name=_screen_name(user_id, rng),
                is_us=True,
                state=state.abbrev,
                location=location,
            )
        )

    for offset in range(n_foreign):
        user_id = n_us + offset
        location = foreign_locations[
            int(rng.integers(len(foreign_locations)))
        ].title()
        seeds.append(
            UserSeed(
                user_id=user_id,
                screen_name=_screen_name(user_id, rng),
                is_us=False,
                state=None,
                location=location,
            )
        )
    return seeds


def _screen_name(user_id: int, rng: np.random.Generator) -> str:
    prefix = _HANDLE_PREFIXES[int(rng.integers(len(_HANDLE_PREFIXES)))]
    suffix = _HANDLE_SUFFIXES[int(rng.integers(len(_HANDLE_SUFFIXES)))]
    return f"{prefix}_{suffix}_{user_id}"
