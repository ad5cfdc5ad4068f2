import numpy as np
import pytest

from conftest import scalar_gmm_loglike
from digitsv.errors import DegenerateData, DigitsvError
from digitsv.gmm import (
    DiagGmm,
    GmmTrainConfig,
    log_likelihoods,
    loglikes_and_posteriors,
    split_components,
    train_em,
)


def two_cluster_data(seed=0, n=200):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(-5.0, 1.0, (n, 1)), rng.normal(5.0, 1.0, (n, 1))])


class TestTrainEm:
    def test_recovers_two_clusters(self):
        data = two_cluster_data()
        gmm = train_em(data, GmmTrainConfig(target_components=2, em_iterations=40))
        est = np.sort(gmm.means[:, 0])
        # oracle: per-cluster sample means using the true labels
        truth = np.array([data[:200].mean(), data[200:].mean()])
        assert abs(est[0] - truth[0]) < 0.3
        assert abs(est[1] - truth[1]) < 0.3

    def test_single_component_closed_form(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((100, 3)) * 2.0 + 1.0
        gmm = train_em(data, GmmTrainConfig(target_components=1))
        np.testing.assert_array_equal(gmm.means[0], data.mean(axis=0))
        np.testing.assert_array_equal(gmm.variances[0], data.var(axis=0))

    def test_default_target_is_512(self):
        assert GmmTrainConfig().target_components == 512

    def test_monotone_log_likelihood(self):
        data = two_cluster_data(seed=5)
        gmm = train_em(data, GmmTrainConfig(target_components=8))
        for _, lls in gmm.training_log:
            diffs = np.diff(lls)
            assert np.all(diffs >= -1e-8 * np.abs(np.array(lls[:-1])))

    def test_variance_floor_enforced(self):
        data = two_cluster_data(seed=7)
        cfg = GmmTrainConfig(target_components=4)
        gmm = train_em(data, cfg)
        floor = 1e-3 * data.var(axis=0)
        assert np.all(gmm.variances >= floor - 1e-15)

    def test_determinism(self):
        data = two_cluster_data(seed=9)
        cfg = GmmTrainConfig(target_components=4)
        a = train_em(data, cfg)
        b = train_em(data, cfg)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_too_few_samples(self):
        with pytest.raises(DigitsvError, match="3 samples cannot support 4 components"):
            train_em(np.zeros((3, 2)) + np.arange(3)[:, None],
                     GmmTrainConfig(target_components=4))

    def test_degenerate_data(self):
        with pytest.raises(DegenerateData):
            train_em(np.ones((50, 2)), GmmTrainConfig(target_components=2))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            GmmTrainConfig(target_components=12)


class TestLogLikelihood:
    def test_standard_normal_at_mode(self):
        gmm = DiagGmm([1.0], [[0.0]], [[1.0]])
        assert abs(log_likelihoods(gmm, np.array([0.0]))[0] - (-0.5 * np.log(2 * np.pi))) < 1e-12

    def test_standard_normal_at_one(self):
        gmm = DiagGmm([1.0], [[0.0]], [[1.0]])
        expected = -0.5 * np.log(2 * np.pi) - 0.5
        assert abs(log_likelihoods(gmm, np.array([1.0]))[0] - expected) < 1e-12

    def test_three_component_matches_scalar_sum(self):
        rng = np.random.default_rng(4)
        gmm = DiagGmm(
            np.array([0.5, 0.3, 0.2]),
            rng.standard_normal((3, 2)),
            0.5 + rng.random((3, 2)),
        )
        for _ in range(5):
            frame = rng.standard_normal(2)
            assert abs(log_likelihoods(gmm, frame)[0] - scalar_gmm_loglike(gmm, frame)) < 1e-8

    def test_dim_mismatch(self):
        gmm = DiagGmm([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(DigitsvError, match="frame dim 3 vs model dim"):
            log_likelihoods(gmm, np.zeros(3))


class TestComponentPosteriors:
    def test_single_component(self):
        gmm = DiagGmm([1.0], [[0.0]], [[1.0]])
        np.testing.assert_array_equal(loglikes_and_posteriors(gmm, np.array([3.0]))[1][0],
                                      [1.0])

    def test_identical_components_split_evenly(self):
        gmm = DiagGmm([0.5, 0.5], [[1.0], [1.0]], [[2.0], [2.0]])
        np.testing.assert_allclose(loglikes_and_posteriors(gmm, np.array([0.3]))[1][0],
                                   [0.5, 0.5])

    def test_matches_direct_density_arithmetic(self):
        gmm = DiagGmm([0.7, 0.3], [[-1.0], [2.0]], [[1.0], [4.0]])
        x = 0.5
        dens = [
            w * np.exp(-0.5 * np.log(2 * np.pi * v) - 0.5 * (x - m) ** 2 / v)
            for w, m, v in [(0.7, -1.0, 1.0), (0.3, 2.0, 4.0)]
        ]
        expected = np.array(dens) / sum(dens)
        np.testing.assert_allclose(loglikes_and_posteriors(gmm, np.array([x]))[1][0], expected,
                                   atol=1e-12)

    def test_normalization_over_random_frames(self):
        rng = np.random.default_rng(8)
        gmm = DiagGmm(
            np.full(4, 0.25), rng.standard_normal((4, 3)), 0.5 + rng.random((4, 3))
        )
        for _ in range(20):
            post = loglikes_and_posteriors(gmm, 5 * rng.standard_normal(3))[1][0]
            assert np.all(post >= 0)
            assert abs(post.sum() - 1.0) < 1e-9


class TestSplit:
    def test_doubles_components_and_halves_weights(self):
        gmm = DiagGmm([1.0], [[0.0, 1.0]], [[1.0, 4.0]])
        out = DiagGmm(*split_components(gmm))
        assert out.n_components == 2
        np.testing.assert_array_equal(out.weights, [0.5, 0.5])
        np.testing.assert_allclose(out.means[0], [-0.2, 1.0 - 0.4])
        np.testing.assert_allclose(out.means[1], [0.2, 1.0 + 0.4])

    def test_weights_still_sum_to_one(self):
        rng = np.random.default_rng(1)
        w = rng.random(4)
        gmm = DiagGmm(w / w.sum(), rng.standard_normal((4, 2)), 1 + rng.random((4, 2)))
        weights, _, _ = split_components(gmm)
        assert abs(weights.sum() - 1.0) < 1e-12

    def test_split_then_em_improves_on_bimodal_data(self):
        data = two_cluster_data(seed=13)
        one = train_em(data, GmmTrainConfig(target_components=1))
        ll_one = log_likelihoods(one, data).sum()
        two = train_em(data, GmmTrainConfig(target_components=2, em_iterations=5))
        ll_two = log_likelihoods(two, data).sum()
        assert ll_two > ll_one
