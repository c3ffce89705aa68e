"""Tests for the named scenarios."""

import pytest

from repro.errors import ConfigError
from repro.organs import Organ
from repro.synth.config import SynthConfig
from repro.synth.scenarios import (
    PAPER_STATE_BOOSTS,
    null_uniform_scenario,
    paper2016_scenario,
)


class TestPaper2016Scenario:
    def test_scale_controls_user_count(self):
        small = paper2016_scenario(scale=0.01)
        large = paper2016_scenario(scale=0.02)
        assert large.population.n_users == pytest.approx(
            2 * small.population.n_users, rel=0.02
        )

    def test_full_scale_matches_paper_volume(self):
        """At scale 1.0 the located US user count approximates Table I's
        71,947: generated US users × location-resolution rate."""
        config = paper2016_scenario(scale=1.0)
        n_us = config.population.n_users * config.population.us_fraction
        located = n_us * (1 - config.population.junk_location_rate) * 0.97
        assert located == pytest.approx(71_947, rel=0.05)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            paper2016_scenario(scale=0.0)
        with pytest.raises(ValueError):
            paper2016_scenario(scale=-1)

    def test_minimum_population_floor(self):
        assert paper2016_scenario(scale=1e-9).population.n_users >= 50

    def test_seed_propagates(self):
        assert paper2016_scenario(seed=99).seed == 99

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            paper2016_scenario(seed=-1)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            SynthConfig(seed=-1)


class TestPlantedBoosts:
    def test_paper_named_anomalies_present(self):
        kidney, lung, liver = (
            Organ.KIDNEY.index, Organ.LUNG.index, Organ.LIVER.index,
        )
        assert PAPER_STATE_BOOSTS["KS"][kidney] > 1.5
        assert PAPER_STATE_BOOSTS["LA"][kidney] > 1.5
        assert PAPER_STATE_BOOSTS["MA"][kidney] > 1
        assert PAPER_STATE_BOOSTS["MA"][lung] > 1.5
        for state in ("DE", "RI", "CO"):
            assert PAPER_STATE_BOOSTS[state][liver] > 1.5
        for state in ("OR", "GA", "VA"):
            assert PAPER_STATE_BOOSTS[state][lung] > 1.5

    def test_kansas_is_only_midwest_kidney_boost(self):
        """Reproduces the Cao et al. cross-check the paper highlights."""
        from repro.geo.gazetteer import CensusRegion, state_by_abbrev

        kidney = Organ.KIDNEY.index
        midwest_kidney_excess = [
            state
            for state, boosts in PAPER_STATE_BOOSTS.items()
            if boosts.get(kidney, 1.0) > 1.0
            and state_by_abbrev(state).region is CensusRegion.MIDWEST
        ]
        assert midwest_kidney_excess == ["KS"]

    def test_other_midwest_states_damped_not_boosted(self):
        """The Cao et al. geography: the rest of the Midwest leans away
        from kidney conversation."""
        from repro.geo.gazetteer import CensusRegion, state_by_abbrev

        kidney = Organ.KIDNEY.index
        for state, boosts in PAPER_STATE_BOOSTS.items():
            if (
                state != "KS"
                and state_by_abbrev(state).region is CensusRegion.MIDWEST
                and kidney in boosts
            ):
                assert boosts[kidney] < 1.0, state

    def test_all_boost_states_valid(self):
        from repro.geo.gazetteer import state_by_abbrev

        for state in PAPER_STATE_BOOSTS:
            state_by_abbrev(state)  # raises if unknown


class TestNullScenario:
    def test_uniform_prior(self):
        config = null_uniform_scenario()
        assert all(
            p == pytest.approx(1 / 6) for p in config.attention.national_prior
        )

    def test_no_boosts(self):
        assert null_uniform_scenario().attention.state_boosts == {}
