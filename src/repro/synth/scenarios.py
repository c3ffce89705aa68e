"""Named, calibrated synthetic-world scenarios.

:func:`paper2016_scenario` is the reproduction workload: calibrated to
Table I of the paper and planted with the geographic anomalies its §IV
reports.  ``scale=1.0`` approximates the paper's full dataset (~72k located
US users, ~975k on-topic tweets); tests and default benchmarks run smaller
scales of the *same* distribution.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError
from repro.organs import Organ
from repro.synth.config import (
    ActivityConfig,
    AttentionConfig,
    PopulationConfig,
    SynthConfig,
    TextConfig,
)

#: Users generated at scale=1.0.  With us_fraction 0.158, a 10% junk
#: location rate, and ~97% geocoder success on styled locations, this
#: yields ≈ 72k located US users and ≈ 975k on-topic tweets — Table I.
_FULL_SCALE_USERS = 521_000

_H, _K, _LI, _LU, _P, _I = (organ.index for organ in Organ)

#: Planted per-state anomalies.  The first block reproduces states the
#: paper names explicitly (§IV-B); the second block enriches the map so
#: Fig. 5 has the paper's "most states have at least one highlighted
#: organ" texture.  Kansas is deliberately the *only* Midwest state with a
#: kidney boost, reproducing the Cao et al. cross-check.
PAPER_STATE_BOOSTS: dict[str, dict[int, float]] = {
    # --- named in the paper ---
    "KS": {_K: 2.2},
    "LA": {_K: 1.9},
    "MA": {_K: 1.6, _LU: 1.9},
    "DE": {_LI: 2.1},
    "RI": {_LI: 2.1},
    "CO": {_LI: 2.0},
    "OR": {_LU: 2.0},
    "GA": {_LU: 1.9},
    "VA": {_LU: 1.9},
    "ND": {_LI: 2.1, _K: 0.85},
    "WI": {_LU: 1.7, _K: 0.85},
    # --- synthetic enrichment (plausible texture, not paper claims) ---
    "NY": {_K: 1.35},
    "TN": {_K: 1.45},
    "AL": {_K: 1.5},
    "FL": {_H: 1.25},
    "CA": {_H: 1.2},
    "TX": {_LI: 1.4},
    "AZ": {_LI: 1.5},
    "NC": {_LI: 1.45},
    "WA": {_LU: 1.5},
    "PA": {_P: 1.8},
    # --- Midwest (except Kansas): mild kidney damping, reflecting the
    # Cao et al. 2016 geography the paper cites (the region trails in
    # deceased kidney donation, Kansas being the lone surplus state);
    # this keeps the Kansas anomaly regionally unique under sampling
    # noise.  Other organs keep their enrichment boosts ---
    "IL": {_K: 0.85},
    "IN": {_K: 0.85},
    "IA": {_K: 0.85},
    "SD": {_K: 0.85},
    "MI": {_K: 0.85, _LU: 1.4},
    "MN": {_K: 0.85, _H: 1.3},
    "MO": {_K: 0.85, _H: 1.35},
    "NE": {_K: 0.85, _LI: 1.7},
    "OH": {_K: 0.85, _P: 1.7},
}


def check_scale(scale: float) -> None:
    """Raise :class:`ConfigError` unless ``scale`` is positive and finite."""
    if not (scale > 0 and math.isfinite(scale)):
        raise ConfigError(f"scale must be > 0 and finite, got {scale}")


def paper2016_scenario(scale: float = 0.01, seed: int = 0) -> SynthConfig:
    """The calibrated reproduction scenario.

    Args:
        scale: dataset size relative to the paper (1.0 ≈ Table I volumes).
        seed: world RNG seed.

    Raises:
        ConfigError: if ``scale`` is not positive and finite.
    """
    check_scale(scale)
    n_users = max(50, int(round(_FULL_SCALE_USERS * scale)))
    return SynthConfig(
        population=PopulationConfig(
            n_users=n_users,
            us_fraction=0.158,
            junk_location_rate=0.10,
            midwest_bias=0.80,
        ),
        attention=AttentionConfig(state_boosts=dict(PAPER_STATE_BOOSTS)),
        activity=ActivityConfig(),
        text=TextConfig(),
        seed=seed,
    )


def null_uniform_scenario(n_users: int = 5000, seed: int = 0) -> SynthConfig:
    """A null world: uniform organ prior, no geographic anomalies.

    Used by ablations to measure false-positive rates — with nothing
    planted, relative-risk detection should highlight (almost) nothing.
    """
    uniform = (1 / 6,) * 6
    return SynthConfig(
        population=PopulationConfig(n_users=n_users),
        attention=AttentionConfig(national_prior=uniform, state_boosts={}),
        activity=ActivityConfig(),
        text=TextConfig(),
        seed=seed,
    )
