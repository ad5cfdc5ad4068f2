import warnings

import numpy as np
import pytest

from conftest import mfcc_feats, state_gmm
from digitsv.errors import DegenerateData, DigitsvError, EmptyStateWarning, StarvedState
from digitsv.gmm import DiagGmm, EmAccumulator
from digitsv.hmm import DIGIT_STATES, N_STATES, path_to_alignment
from digitsv.pgmm import (
    Background,
    Pgmm,
    SuffStats,
    accumulate_stats,
    init_pgmm,
    mixture_posteriors,
    pgmm_e_step,
    pgmm_m_step,
    train_pgmm,
)


def uniform_alignment(t, states):
    post = np.zeros((t, N_STATES))
    post[:, states] = 1.0 / len(states)
    return post


def one_state_pgmm(n_components=1, dim=60, mean=0.0):
    """A Pgmm whose state 0 carries the model under test; the rest are far away."""
    means = np.empty((len(DIGIT_STATES), n_components, dim))
    means[0] = mean
    means[1:] = 1e3 + np.arange(1, len(DIGIT_STATES))[:, None, None]
    return Pgmm(np.full((len(DIGIT_STATES), n_components), 1.0 / n_components), means,
                np.ones(means.shape))


def em_step(pgmm, aligns, feats):
    """One E-step and M-step of ``pgmm`` under the alignments."""
    return pgmm_m_step(pgmm, pgmm_e_step(pgmm, aligns, feats)[0])


class TestInitPgmm:
    def test_total_mixture_count(self, small_corpus, small_models):
        pgmm = small_models.pgmm
        assert pgmm.weights.shape[0] == 30
        assert pgmm.n_mixtures == 30 * pgmm.n_components

    def test_starved_state_reported(self):
        feats = mfcc_feats(np.random.default_rng(0).standard_normal((40, 2)))
        align = uniform_alignment(40, [0])  # everything on state 0
        with pytest.raises(StarvedState) as err:
            init_pgmm([align], [feats], n_components=2)
        assert err.value.state in DIGIT_STATES

    def test_zero_variance_state_named(self):
        # state 1 keeps one of its three frames: enough for one component, but no spread
        labels = np.delete(np.repeat(np.arange(30), 3), [4, 5])
        feats = mfcc_feats(np.random.default_rng(6).standard_normal((len(labels), 2)))
        with pytest.raises(DegenerateData, match="^state 1 got 1 frames with zero variance$"):
            init_pgmm([path_to_alignment(labels)], [feats], n_components=1)

    def test_hard_assignment_is_argmax(self):
        post = np.zeros((1, N_STATES))
        post[0, 0], post[0, 1], post[0, 2] = 0.1, 0.7, 0.2
        assert post.argmax(axis=1)[0] == 1


class TestMixturePosteriors:
    def test_single_state_single_component(self):
        pgmm = one_state_pgmm()
        align = uniform_alignment(3, [0])
        mp = mixture_posteriors(pgmm, align, mfcc_feats(np.zeros((3, 2))))
        np.testing.assert_allclose(mp[:, 0], 1.0, atol=1e-12)

    def test_silence_mass_dropped_not_renormalized(self):
        pgmm = one_state_pgmm()
        post = np.zeros((2, N_STATES))
        post[:, 0] = 0.3
        post[:, 30] = 0.7  # silence
        mp = mixture_posteriors(pgmm, post, mfcc_feats(np.zeros((2, 2))))
        np.testing.assert_allclose(mp.sum(axis=1), 0.3, atol=1e-9)

    def test_uniform_two_state_symmetric(self):
        one = one_state_pgmm()
        means = one.means.copy()
        means[3] = means[0]
        pgmm = Pgmm(one.weights, means, one.variances)
        align = uniform_alignment(2, [0, 3])
        mp = mixture_posteriors(pgmm, align, mfcc_feats(np.zeros((2, 2))), prune=0.0)
        np.testing.assert_allclose(mp[:, 0], mp[:, 3], atol=1e-12)

    def test_hand_product_case(self):
        from digitsv.gmm import loglikes_and_posteriors

        pgmm = one_state_pgmm(n_components=2)
        pgmm.means[0, 1] += 1.5
        align = uniform_alignment(1, [0, 3])  # state 0 carries mass 0.5
        feats = mfcc_feats(np.array([[0.7]]))
        mp = mixture_posteriors(pgmm, align, feats, prune=0.0)
        expected = 0.5 * loglikes_and_posteriors(state_gmm(pgmm, 0), feats.frames[:1])[1][0]
        np.testing.assert_allclose(mp[0, :2], expected, atol=1e-12)

    def test_alignment_shape_checked(self):
        # one row per frame and one column per global state
        pgmm = one_state_pgmm()
        feats = mfcc_feats(np.zeros((3, 2)))
        for align in (uniform_alignment(4, [0]), uniform_alignment(3, [0])[:, :30]):
            with pytest.raises(DigitsvError, match="features need"):
                mixture_posteriors(pgmm, align, feats)

    def test_ubm_posteriors_normalized(self):
        rng = np.random.default_rng(0)
        ubm = DiagGmm(np.full(4, 0.25), rng.standard_normal((4, 60)),
                      np.ones((4, 60)))
        mp = mixture_posteriors(ubm, None, mfcc_feats(rng.standard_normal((5, 2))))
        np.testing.assert_allclose(mp.sum(axis=1), 1.0, atol=1e-6)


class TestAccumulateStats:
    def test_zero_posteriors_give_zero_stats(self):
        gammas = np.zeros((4, 2))
        feats = mfcc_feats(np.random.default_rng(0).standard_normal((4, 2)))
        stats = accumulate_stats(gammas, feats, np.zeros((2, 60)))
        assert stats.n.sum() == 0
        assert np.all(stats.f == 0)

    def test_single_frame_first_order(self):
        rng = np.random.default_rng(1)
        means = rng.standard_normal((3, 60))
        gammas = np.array([[0.0, 1.0, 0.0]])
        feats = mfcc_feats(rng.standard_normal((1, 2)))
        stats = accumulate_stats(gammas, feats, means)
        np.testing.assert_allclose(stats.f[1], feats.frames[0] - means[1], atol=1e-12)

    def test_split_and_merge_equals_whole(self):
        rng = np.random.default_rng(2)
        means = rng.standard_normal((4, 60))
        g = rng.random((10, 4))
        feats = mfcc_feats(rng.standard_normal((10, 2)))
        whole = accumulate_stats(g, feats, means)
        first = accumulate_stats(g[:6], mfcc_feats(feats.frames[:6, :2]), means)
        second = accumulate_stats(g[6:], mfcc_feats(feats.frames[6:, :2]), means)
        merged = first.add(second)
        np.testing.assert_allclose(merged.n, whole.n, atol=1e-10)
        np.testing.assert_allclose(merged.f, whole.f, atol=1e-10)

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        means = rng.standard_normal((2, 60))
        g = rng.random((8, 2))
        frames = rng.standard_normal((8, 2))
        perm = rng.permutation(8)
        a = accumulate_stats(g, mfcc_feats(frames), means)
        b = accumulate_stats(g[perm], mfcc_feats(frames[perm]), means)
        np.testing.assert_allclose(a.f, b.f, atol=1e-12)

    def test_shape_mismatch(self):
        gammas = np.zeros((4, 2))
        feats = mfcc_feats(np.zeros((4, 2)))
        with pytest.raises(DigitsvError, match="does not match posteriors/features"):
            accumulate_stats(gammas, feats, np.zeros((3, 60)))


class TestPgmmEm:
    def test_closed_form_single_component(self):
        rng = np.random.default_rng(4)
        pgmm = one_state_pgmm()
        frames = rng.standard_normal((20, 2))
        feats = mfcc_feats(frames)
        align = uniform_alignment(20, [0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyStateWarning)
            out = em_step(pgmm, [align], [feats])
        np.testing.assert_allclose(out.means[0, 0], feats.frames.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(out.variances[0, 0],
                                   np.maximum(feats.frames.var(axis=0), 1e-10),
                                   rtol=1e-6)

    def test_weights_sum_to_one_per_state(self, small_corpus, small_models):
        for s in DIGIT_STATES:
            assert abs(state_gmm(small_models.pgmm, s).weights.sum() - 1.0) < 1e-9

    def test_empty_state_warns_and_keeps_parameters(self):
        pgmm = one_state_pgmm()
        align = uniform_alignment(5, [0])  # every other state empty
        feats = mfcc_feats(np.random.default_rng(5).standard_normal((5, 2)))
        with pytest.warns(EmptyStateWarning):
            out = em_step(pgmm, [align], [feats])
        np.testing.assert_array_equal(out.means[1], pgmm.means[1])

    def test_two_frame_hand_update(self):
        # one state, two components, hand-set posteriors via explicit accumulator
        pgmm = one_state_pgmm(n_components=2)
        pgmm.means[0, 0, :] = 0.0
        pgmm.means[0, 1, :] = 1.0
        x = np.vstack([np.full((1, 60), 0.2), np.full((1, 60), 0.9)])
        feats = mfcc_feats(x[:, :2])
        accum = EmAccumulator(pgmm)
        resp = np.array([[0.8, 0.2], [0.3, 0.7]])  # hand-chosen occupancies
        accum.n[0] = resp.sum(axis=0)
        accum.sx[0] = resp.T @ feats.frames
        accum.sxx[0] = resp.T @ (feats.frames ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyStateWarning)
            out = pgmm_m_step(pgmm, accum)
        n = resp.sum(axis=0)
        np.testing.assert_allclose(out.weights[0], n / n.sum(), atol=1e-12)
        mean0 = (0.8 * 0.2 + 0.3 * 0.9) / n[0]
        np.testing.assert_allclose(out.means[0, 0], mean0, atol=1e-12)
        var0 = (0.8 * 0.2 ** 2 + 0.3 * 0.9 ** 2) / n[0] - mean0 ** 2
        np.testing.assert_allclose(out.variances[0, 0], var0, rtol=1e-6)

    def test_objective_nondecreasing(self, small_corpus, small_models):
        from digitsv.neural_aligner import mlp_posteriors

        enroll = [u for u in small_corpus.utterances if u.split == "enroll"][:6]
        aligns = [mlp_posteriors(small_models.mlp, u.feats) for u in enroll]
        feats = [u.feats for u in enroll]
        pgmm = small_models.pgmm
        accum, prev = pgmm_e_step(pgmm, aligns, feats)
        for _ in range(3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyStateWarning)
                pgmm = pgmm_m_step(pgmm, accum)
            accum, cur = pgmm_e_step(pgmm, aligns, feats)
            assert cur >= prev - 1e-8 * abs(prev)
            prev = cur

    def test_train_pgmm_log_nondecreasing(self, small_corpus, small_models):
        from digitsv.neural_aligner import mlp_posteriors

        enroll = [u for u in small_corpus.utterances if u.split == "enroll"]
        aligns = [mlp_posteriors(small_models.mlp, u.feats) for u in enroll]
        feats = [u.feats for u in enroll]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyStateWarning)
            pgmm = train_pgmm(aligns, feats, n_components=2, em_iterations=3)
        log = pgmm.training_log
        assert len(log) == 3
        assert log[-1] == pgmm_e_step(pgmm, aligns, feats)[1]
        assert all(cur >= prev - 1e-8 * abs(prev) for prev, cur in zip(log, log[1:]))

    def test_mass_conservation(self, small_corpus, small_models):
        from digitsv.neural_aligner import mlp_posteriors

        u = next(u for u in small_corpus.utterances if u.split == "enroll")
        align = mlp_posteriors(small_models.mlp, u.feats)
        mp = mixture_posteriors(small_models.pgmm, align, u.feats, prune=0.0)
        retained = align[:, list(DIGIT_STATES)].sum()
        assert abs(mp.sum() - retained) < 1e-6


class TestBackground:
    def test_from_pgmm_shapes(self, small_models):
        bg = Background.of(small_models.pgmm, "dnn")
        assert bg.means.shape == (small_models.pgmm.n_mixtures, 60)

    def test_from_hmm_drop_silence(self, small_models):
        bg = Background.of(small_models.hmms, "gmm-hmm")
        assert bg.means.shape[0] == 30 * small_models.hmms.n_components
