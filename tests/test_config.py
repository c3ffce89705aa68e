"""Tests for configuration validation."""

import pytest

from repro.config import (
    AnalysisConfig,
    CollectionConfig,
    RelativeRiskConfig,
    ResiliencePolicy,
    StateClusteringConfig,
    UserClusteringConfig,
)
from repro.errors import ConfigError


class TestCollectionConfig:
    def test_defaults_valid(self):
        config = CollectionConfig()
        assert config.prefer_geotag
        assert 0.0 <= config.min_confidence <= 1.0

    def test_empty_context_rejected(self):
        with pytest.raises(ConfigError, match="context_terms"):
            CollectionConfig(context_terms=())

    def test_empty_subject_rejected(self):
        with pytest.raises(ConfigError, match="subject_terms"):
            CollectionConfig(subject_terms=())

    @pytest.mark.parametrize("term", ["", "   ", "organ donor", " donor"])
    def test_context_term_must_be_one_word(self, term):
        # A track phrase splits on whitespace, so a blank term drops out
        # of its phrase and leaves the subject matching on its own.
        with pytest.raises(ConfigError, match="context_terms"):
            CollectionConfig(context_terms=("donor", term))

    @pytest.mark.parametrize("term", ["spleen", "Kidney", "kidney donor"])
    def test_subject_term_must_be_organ_alias(self, term):
        # Every query names its organ through ALIASES.
        with pytest.raises(ConfigError, match="subject_terms"):
            CollectionConfig(subject_terms=("kidney", term))

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_bad_confidence_rejected(self, bad):
        with pytest.raises(ConfigError, match="min_confidence"):
            CollectionConfig(min_confidence=bad)

    def test_frozen(self):
        config = CollectionConfig()
        with pytest.raises(AttributeError):
            config.min_confidence = 0.9


class TestResiliencePolicy:
    def test_defaults_follow_twitter_guidance(self):
        policy = ResiliencePolicy()
        assert policy.network_backoff_step == 0.25
        assert policy.network_backoff_cap == 16.0
        assert policy.http_backoff_initial == 5.0
        assert policy.http_backoff_cap == 320.0
        assert policy.rate_limit_backoff_initial == 60.0

    @pytest.mark.parametrize("field", [
        "network_backoff_step", "network_backoff_cap",
        "http_backoff_initial", "http_backoff_cap",
        "rate_limit_backoff_initial", "rate_limit_backoff_cap",
    ])
    def test_delays_must_be_positive(self, field):
        with pytest.raises(ConfigError, match=field):
            ResiliencePolicy(**{field: 0.0})

    def test_backoff_factor_must_grow(self):
        with pytest.raises(ConfigError, match="backoff_factor"):
            ResiliencePolicy(backoff_factor=0.5)

    @pytest.mark.parametrize("bad", [-0.1, 1.0])
    def test_jitter_must_be_a_fraction(self, bad):
        with pytest.raises(ConfigError, match="jitter"):
            ResiliencePolicy(jitter=bad)

    def test_stall_timeout_must_be_positive(self):
        with pytest.raises(ConfigError, match="stall_timeout_ticks"):
            ResiliencePolicy(stall_timeout_ticks=0)

    def test_dedup_window_must_be_positive(self):
        with pytest.raises(ConfigError, match="dedup_window"):
            ResiliencePolicy(dedup_window=0)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_reorder_window_must_be_positive(self, bad):
        """A zero-size reorder buffer silently disables order restoration
        — reject it at construction, like every other degenerate size."""
        with pytest.raises(ConfigError, match="reorder_window"):
            ResiliencePolicy(reorder_window=bad)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"network_backoff_step": -0.25},
            {"network_backoff_cap": -16.0},
            {"http_backoff_initial": -5.0},
            {"http_backoff_cap": -320.0},
            {"rate_limit_backoff_initial": -60.0},
            {"rate_limit_backoff_cap": -960.0},
            {"dedup_window": 0},
            {"reorder_window": 0},
        ],
    )
    def test_degenerate_fields_raise_value_error(self, kwargs):
        """ConfigError doubles as ValueError, so generic callers that
        only know stdlib exception taxonomy still see the rejection."""
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)

    def test_frozen(self):
        policy = ResiliencePolicy()
        with pytest.raises(AttributeError):
            policy.jitter = 0.5


class TestRelativeRiskConfig:
    def test_paper_default_alpha(self):
        assert RelativeRiskConfig().alpha == 0.05

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_bad_alpha_rejected(self, bad):
        with pytest.raises(ConfigError, match="alpha"):
            RelativeRiskConfig(alpha=bad)

    def test_min_users_must_be_positive(self):
        with pytest.raises(ConfigError, match="min_users"):
            RelativeRiskConfig(min_users=0)


class TestUserClusteringConfig:
    def test_paper_default_k(self):
        assert UserClusteringConfig().k == 12

    @pytest.mark.parametrize("field,value", [
        ("k", 0), ("n_init", 0), ("max_iter", 0),
    ])
    def test_non_positive_rejected(self, field, value):
        with pytest.raises(ConfigError):
            UserClusteringConfig(**{field: value})


class TestStateClusteringConfig:
    def test_paper_default_affinity(self):
        assert StateClusteringConfig().affinity == "bhattacharyya"

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ConfigError, match="linkage"):
            StateClusteringConfig(linkage="ward")

    def test_unknown_affinity_rejected(self):
        with pytest.raises(ConfigError, match="affinity"):
            StateClusteringConfig(affinity="cosine")

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_valid_linkages(self, linkage):
        assert StateClusteringConfig(linkage=linkage).linkage == linkage


class TestAnalysisConfig:
    def test_bundles_defaults(self):
        config = AnalysisConfig()
        assert config.relative_risk.alpha == 0.05
        assert config.user_clustering.k == 12
        assert config.state_clustering.affinity == "bhattacharyya"

    def test_custom_sections(self):
        config = AnalysisConfig(relative_risk=RelativeRiskConfig(alpha=0.01))
        assert config.relative_risk.alpha == 0.01
        assert config.user_clustering.k == 12
