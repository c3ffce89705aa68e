"""Location-string corrupter used by the synthetic world.

Real Twitter profile locations are messy: inconsistent casing, emoji,
nicknames, bare city names, jokes ("somewhere over the rainbow"), or empty.
The synthetic population emits location strings through this module so the
geocoder is exercised on the same distribution of forms the paper faced.
"""

from __future__ import annotations

import numpy as np

from repro.geo.cities import cities_in_state
from repro.geo.gazetteer import StateInfo

#: Unresolvable strings emitted for users who hide or joke about location.
JUNK_LOCATIONS: tuple[str, ...] = (
    "somewhere over the rainbow",
    "earth",
    "the internet",
    "in my feelings",
    "everywhere and nowhere",
    "🌍",
    "your heart",
    "wonderland",
    "the moon",
    "planet earth",
    "worldwide",
    "hogwarts",
)

_EMOJI = ("☀", "🏠", "❤", "🌴", "✨", "🌊")


class LocationStyler:
    """Render a US state as a plausible profile location string.

    Args:
        rng: NumPy random generator; all randomness flows through it so the
            synthetic world stays deterministic per seed.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def style_us(self, state: StateInfo) -> str:
        """One profile-location string for a user living in ``state``."""
        roll = self._rng.random()
        if roll < 0.30:
            text = self._city_comma_abbrev(state)
        elif roll < 0.45:
            text = state.name
        elif roll < 0.55:
            text = state.abbrev  # uppercase bare code
        elif roll < 0.70:
            text = self._bare_city(state)
        elif roll < 0.80:
            text = f"{state.name}, USA"
        elif roll < 0.88 and state.nicknames:
            text = self._pick(state.nicknames)
        else:
            text = self._city_comma_name(state)
        return self._decorate(text)

    def style_junk(self) -> str:
        """A location string that should not geocode anywhere."""
        return self._pick(JUNK_LOCATIONS)

    def _city_comma_abbrev(self, state: StateInfo) -> str:
        city = self._pick_city(state)
        return f"{city.title()}, {state.abbrev}"

    def _city_comma_name(self, state: StateInfo) -> str:
        city = self._pick_city(state)
        return f"{city.title()}, {state.name}"

    def _bare_city(self, state: StateInfo) -> str:
        return self._pick_city(state).title()

    def _pick_city(self, state: StateInfo) -> str:
        cities = cities_in_state(state.abbrev)
        if not cities:
            return state.name
        city = self._pick(cities)
        # City table disambiguates duplicates with a state suffix ("salem or");
        # strip it for display — the comma pattern re-adds the real state.
        if city.endswith(f" {state.abbrev.lower()}"):
            city = city[: -(len(state.abbrev) + 1)]
        return city

    def _decorate(self, text: str) -> str:
        """Apply surface noise: casing and the occasional emoji."""
        roll = self._rng.random()
        if roll < 0.12:
            text = text.lower() if text.upper() != text else text
        elif roll < 0.18:
            text = text.upper() if len(text) > 2 else text
        if self._rng.random() < 0.08:
            text = f"{text} {self._pick(_EMOJI)}"
        return text

    def _pick(self, options: tuple[str, ...]) -> str:
        """One of ``options``: the draw ``rng.choice(options)`` makes, without its overhead."""
        return options[int(self._rng.integers(len(options)))]
