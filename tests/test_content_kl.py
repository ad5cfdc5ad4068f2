import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsv.content_kl import (
    ClassPosteriorSequence,
    PhoneticClassMap,
    content_verify,
    kl_score,
    pool_classes,
    smooth,
)
from digitsv.errors import NotSmoothed, ShapeMismatch, SourceMismatch
from digitsv.hmm import N_STATES, AlignmentMatrix, AlignSource


def random_alignment(t, seed=0, source=AlignSource.DNN):
    rng = np.random.default_rng(seed)
    post = rng.random((t, N_STATES))
    post /= post.sum(axis=1, keepdims=True)
    return AlignmentMatrix(post, source)


class TestClassMap:
    def test_state_level_is_identity(self):
        cmap = PhoneticClassMap.state_level()
        assert cmap.n_classes == 33
        assert cmap.state_to_class == tuple(range(33))

    def test_digit_level_pools_words(self):
        cmap = PhoneticClassMap.digit_level()
        assert cmap.n_classes == 11
        assert cmap.state_to_class[:3] == (0, 0, 0)
        assert cmap.state_to_class[21:24] == (7, 7, 7)
        assert cmap.state_to_class[30:] == (10, 10, 10)  # silence class


class TestPoolClasses:
    def test_digit_mass_sums_member_states(self):
        post = np.zeros((1, N_STATES))
        post[0, 3], post[0, 4], post[0, 5] = 0.2, 0.3, 0.1  # digit "1"
        post[0, 30] = 0.4
        align = AlignmentMatrix(post, AlignSource.DNN)
        pooled = pool_classes(align, PhoneticClassMap.digit_level())
        assert abs(pooled.posteriors[0, 1] - 0.6) < 1e-12

    def test_state_level_identity(self):
        align = random_alignment(5, seed=1)
        pooled = pool_classes(align, PhoneticClassMap.state_level())
        np.testing.assert_array_equal(pooled.posteriors, align.posteriors)

    def test_mass_conserved(self):
        align = random_alignment(7, seed=2)
        pooled = pool_classes(align, PhoneticClassMap.digit_level())
        np.testing.assert_allclose(pooled.posteriors.sum(axis=1),
                                   align.posteriors.sum(axis=1), atol=1e-12)


class TestSmooth:
    def test_default_epsilon(self):
        import inspect

        from digitsv.content_kl import EPSILON_DEFAULT

        assert EPSILON_DEFAULT == 1e-5
        assert inspect.signature(smooth).parameters["epsilon"].default == 1e-5

    def test_uniform_stays_uniform(self):
        cps = ClassPosteriorSequence(np.full((3, 4), 0.25), "HMM")
        out = smooth(cps)
        np.testing.assert_allclose(out.posteriors, 0.25, atol=1e-15)

    def test_hand_case(self):
        eps = 1e-5
        cps = ClassPosteriorSequence(np.array([[1.0, 0.0]]), "HMM")
        out = smooth(cps, eps)
        expected = np.array([(1 + eps) / (1 + 2 * eps), eps / (1 + 2 * eps)])
        np.testing.assert_allclose(out.posteriors[0], expected, atol=1e-15)

    def test_rows_positive_and_normalized(self):
        rng = np.random.default_rng(3)
        raw = rng.random((6, 11))
        raw[raw < 0.5] = 0.0
        out = smooth(ClassPosteriorSequence(raw, "DNN"))
        assert np.all(out.posteriors > 0)
        np.testing.assert_allclose(out.posteriors.sum(axis=1), 1.0, atol=1e-12)

    def test_argmax_preserved_when_gap_large(self):
        rng = np.random.default_rng(4)
        raw = rng.random((10, 11))
        raw /= raw.sum(axis=1, keepdims=True)
        out = smooth(ClassPosteriorSequence(raw, "HMM"), 1e-5)
        np.testing.assert_array_equal(out.posteriors.argmax(axis=1),
                                      raw.argmax(axis=1))


class TestKlScore:
    def _smoothed_pair(self, p, q):
        hp = smooth(ClassPosteriorSequence(np.asarray(p, dtype=float), "HMM"))
        dp = smooth(ClassPosteriorSequence(np.asarray(q, dtype=float), "DNN"))
        return hp, dp

    def test_identical_sequences_score_zero(self):
        rng = np.random.default_rng(5)
        raw = rng.random((8, 11))
        raw /= raw.sum(axis=1, keepdims=True)
        hp, dp = self._smoothed_pair(raw, raw)
        assert kl_score(hp, dp) == 0.0

    def test_log_two_hand_case(self):
        eps = 1e-5
        hp, dp = self._smoothed_pair([[1.0, 0.0]], [[0.5, 0.5]])
        got = kl_score(hp, dp)
        # direct scalar evaluation of the smoothed divergence
        h = np.array([(1 + eps) / (1 + 2 * eps), eps / (1 + 2 * eps)])
        expected = h[0] * np.log(h[0] / 0.5) + h[1] * np.log(h[1] / 0.5)
        assert abs(got - expected) < 1e-12
        assert abs(got - np.log(2.0)) < 1e-3

    def test_unsmoothed_rejected(self):
        raw = np.full((2, 4), 0.25)
        hp = ClassPosteriorSequence(raw, "HMM")
        dp = smooth(ClassPosteriorSequence(raw, "DNN"))
        with pytest.raises(NotSmoothed):
            kl_score(hp, dp)

    def test_source_order_enforced(self):
        raw = np.full((2, 4), 0.25)
        a = smooth(ClassPosteriorSequence(raw, "DNN"))
        b = smooth(ClassPosteriorSequence(raw, "DNN"))
        with pytest.raises(SourceMismatch):
            kl_score(a, b)

    def test_shape_mismatch(self):
        a = smooth(ClassPosteriorSequence(np.full((2, 4), 0.25), "HMM"))
        b = smooth(ClassPosteriorSequence(np.full((3, 4), 0.25), "DNN"))
        with pytest.raises(ShapeMismatch):
            kl_score(a, b)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_frame_order_invariant(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 12))
        p = rng.random((t, N_STATES))
        p /= p.sum(axis=1, keepdims=True)
        q = rng.random((t, N_STATES))
        q /= q.sum(axis=1, keepdims=True)
        cmap = PhoneticClassMap.digit_level()
        hp = smooth(pool_classes(AlignmentMatrix(p, AlignSource.HMM_FB), cmap))
        dp = smooth(pool_classes(AlignmentMatrix(q, AlignSource.DNN), cmap))
        kl = kl_score(hp, dp)
        assert kl >= 0.0
        perm = rng.permutation(t)
        hp2 = smooth(pool_classes(AlignmentMatrix(p[perm], AlignSource.HMM_FB), cmap))
        dp2 = smooth(pool_classes(AlignmentMatrix(q[perm], AlignSource.DNN), cmap))
        assert abs(kl - kl_score(hp2, dp2)) < 1e-10

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_digit_pooling_never_exceeds_state_level(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 10))
        p = rng.random((t, N_STATES))
        p /= p.sum(axis=1, keepdims=True)
        q = rng.random((t, N_STATES))
        q /= q.sum(axis=1, keepdims=True)

        def score(cmap):
            hp = smooth(pool_classes(AlignmentMatrix(p, AlignSource.HMM_FB), cmap))
            dp = smooth(pool_classes(AlignmentMatrix(q, AlignSource.DNN), cmap))
            return kl_score(hp, dp)

        assert score(PhoneticClassMap.digit_level()) <= \
            score(PhoneticClassMap.state_level()) + 1e-6


class TestContentVerify:
    def test_matched_prompt_scores_below_mismatched(self, small_corpus, small_models):
        from digitsv.pipeline import align
        from digitsv.synth import corrupt_prompt

        models = small_models
        kl_same, kl_wrong = [], []
        for u in small_corpus.tests()[:6]:
            dnn = align("dnn", models, u.feats, None)
            kl_same.append(content_verify(align("gmm-hmm", models, u.feats, u.content), dnn))
            wrong = corrupt_prompt(u.content, "whole_prompt", seed=1)
            kl_wrong.append(content_verify(align("gmm-hmm", models, u.feats, wrong), dnn))
        assert np.median(kl_same) < np.median(kl_wrong)
        assert max(kl_same) < min(kl_wrong)

    def test_alignments_in_source_order(self):
        hmm = random_alignment(6, seed=1, source=AlignSource.HMM_FB)
        dnn = random_alignment(6, seed=2)
        assert content_verify(hmm, dnn) >= 0.0
        with pytest.raises(SourceMismatch):
            content_verify(dnn, hmm)
        with pytest.raises(SourceMismatch):
            content_verify(hmm, hmm)

    def test_default_map_is_digit_level(self):
        import inspect

        sig = inspect.signature(content_verify)
        assert sig.parameters["class_map"].default is None  # resolved to digit level
        cmap = PhoneticClassMap.for_level("digit")
        assert cmap.level == "digit"
