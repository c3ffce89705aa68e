"""Tests for K-Means."""

import numpy as np
import pytest

from repro.cluster.kmeans import KMeans, KMeansResult
from repro.errors import ClusteringError


def three_blobs(n_per: int = 50, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.vstack([
        center + rng.normal(scale=0.3, size=(n_per, 2)) for center in centers
    ])
    labels = np.repeat(np.arange(3), n_per)
    return points, labels


class TestClusteringQuality:
    def test_recovers_well_separated_blobs(self):
        points, truth = three_blobs()
        result = KMeans(k=3, seed=1).fit(points)
        # Labels are a permutation of truth: each true blob maps to one
        # predicted cluster.
        for blob in range(3):
            predicted = result.labels[truth == blob]
            assert len(set(predicted.tolist())) == 1

    def test_centers_near_blob_means(self):
        points, __ = three_blobs()
        result = KMeans(k=3, seed=1).fit(points)
        expected = {(0, 0), (10, 0), (0, 10)}
        found = {tuple(np.round(center).astype(int)) for center in result.centers}
        assert found == expected

    def test_inertia_positive_and_small_for_tight_blobs(self):
        points, __ = three_blobs()
        result = KMeans(k=3, seed=1).fit(points)
        assert 0 < result.inertia < 100

    def test_inertia_decreases_with_k(self):
        points, __ = three_blobs()
        inertias = [
            KMeans(k=k, n_init=4, seed=0).fit(points).inertia
            for k in (1, 2, 3, 6)
        ]
        assert inertias == sorted(inertias, reverse=True)

    def test_k_equals_one(self):
        points, __ = three_blobs()
        result = KMeans(k=1, seed=0).fit(points)
        assert set(result.labels.tolist()) == {0}
        np.testing.assert_allclose(result.centers[0], points.mean(axis=0))

    def test_k_equals_m_zero_inertia(self):
        points = np.arange(10, dtype=float).reshape(5, 2)
        result = KMeans(k=5, seed=0).fit(points)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)


class TestDeterminismAndRestarts:
    def test_deterministic_given_seed(self):
        points, __ = three_blobs()
        a = KMeans(k=3, seed=42).fit(points)
        b = KMeans(k=3, seed=42).fit(points)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(7)
        points = rng.random((200, 4))
        one = KMeans(k=8, n_init=1, seed=3).fit(points)
        many = KMeans(k=8, n_init=10, seed=3).fit(points)
        assert many.inertia <= one.inertia + 1e-9


def restart_oracle(
    model: KMeans, points: np.ndarray
) -> tuple[KMeansResult, list[KMeansResult]]:
    """(winner, every restart): restart i runs ``_fit_once`` on the i-th
    stream spawned from the model seed; the first of the lowest
    inertias wins."""
    streams = np.random.SeedSequence(model.seed).spawn(model.n_init)
    fits = [
        model._fit_once(points, np.random.default_rng(stream))
        for stream in streams
    ]
    lowest = min(fit.inertia for fit in fits)
    return next(fit for fit in fits if fit.inertia == lowest), fits


def assert_same_fit(actual: KMeansResult, expected: KMeansResult) -> None:
    np.testing.assert_array_equal(actual.labels, expected.labels)
    np.testing.assert_array_equal(actual.centers, expected.centers)
    assert actual.inertia == expected.inertia
    assert actual.n_iter == expected.n_iter
    assert actual.converged == expected.converged


class TestRestartOracle:
    """``fit`` is exactly the restart oracle: same labels, centers,
    inertia and iteration count."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k, n_init", [(1, 1), (3, 2), (5, 8), (9, 6)])
    def test_fit_matches_oracle_on_random_inputs(self, seed, k, n_init):
        points = np.random.default_rng(100 + seed).random((80, 3))
        model = KMeans(k=k, n_init=n_init, seed=seed)
        expected, __ = restart_oracle(model, points)
        assert_same_fit(model.fit(points), expected)

    def test_inertia_tie_keeps_the_first_restart(self):
        """Four unit-square corners at k=2: several restarts tie on the
        lowest inertia with different labelings, and the earliest wins."""
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        model = KMeans(k=2, n_init=5, seed=0)
        expected, fits = restart_oracle(model, square)
        tied = [fit for fit in fits if fit.inertia == expected.inertia]
        assert len({tuple(fit.labels.tolist()) for fit in tied}) >= 2
        assert_same_fit(model.fit(square), expected)


class TestEmptyClusterReseeding:
    def test_simultaneous_empty_clusters_get_distinct_centers(self):
        """Regression: two clusters emptied in the same Lloyd iteration
        used to be re-seeded at the *same* worst-fit row, collapsing to
        duplicate centers and effectively fewer than k clusters."""
        rng = np.random.default_rng(0)
        # Four tight blobs, far apart, so each deserves its own center.
        blobs = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0], [40.0, 40.0]])
        points = np.vstack([
            blob + rng.normal(scale=0.05, size=(25, 2)) for blob in blobs
        ])
        model = KMeans(k=4, n_init=1, max_iter=100, seed=0)
        # Force the degenerate start: all k centers identical, so k−1
        # clusters are empty in the very first iteration.
        model._init_centers = lambda matrix, rng: np.tile(points[0], (4, 1))
        result = model.fit(points)
        distinct = {tuple(np.round(center, 6)) for center in result.centers}
        assert len(distinct) == 4
        assert (result.cluster_sizes() > 0).all()

    def test_reseeded_fit_still_usable(self):
        """After reseeding, the fit must be a genuine k-way partition —
        every cluster populated and strictly better than a single-cluster
        fit (reseeding repairs degenerate starts; it does not promise the
        global optimum)."""
        rng = np.random.default_rng(1)
        blobs = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]])
        points = np.vstack([
            blob + rng.normal(scale=0.05, size=(30, 2)) for blob in blobs
        ])
        model = KMeans(k=3, n_init=1, max_iter=100, seed=0)
        model._init_centers = lambda matrix, rng: np.tile(points[0], (3, 1))
        result = model.fit(points)
        assert (result.cluster_sizes() > 0).all()
        assert len({tuple(np.round(c, 6)) for c in result.centers}) == 3
        baseline = KMeans(k=1, seed=0).fit(points).inertia
        assert result.inertia < baseline


class TestEdgeCases:
    def test_k_larger_than_m_rejected(self):
        with pytest.raises(ClusteringError):
            KMeans(k=10).fit(np.ones((3, 2)))

    def test_invalid_k_rejected(self):
        with pytest.raises(ClusteringError):
            KMeans(k=0)

    def test_1d_input_rejected(self):
        with pytest.raises(ClusteringError):
            KMeans(k=2).fit(np.ones(5))

    def test_duplicate_points(self):
        points = np.ones((20, 3))
        result = KMeans(k=2, seed=0).fit(points)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_every_cluster_nonempty_on_separable_data(self):
        points, __ = three_blobs()
        result = KMeans(k=3, seed=5).fit(points)
        assert (result.cluster_sizes() > 0).all()

    def test_labels_in_range(self):
        points, __ = three_blobs()
        result = KMeans(k=3, seed=5).fit(points)
        assert result.labels.min() >= 0
        assert result.labels.max() < 3

    def test_cluster_sizes_sum_to_m(self):
        points, __ = three_blobs()
        result = KMeans(k=3, seed=5).fit(points)
        assert result.cluster_sizes().sum() == points.shape[0]
