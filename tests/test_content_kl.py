import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsv.content_kl import content_verify, kl_score, pool_classes, smooth
from digitsv.errors import DigitsvError
from digitsv.hmm import N_STATES


def random_alignment(t, seed=0):
    rng = np.random.default_rng(seed)
    post = rng.random((t, N_STATES))
    post /= post.sum(axis=1, keepdims=True)
    return post


def state_to_class(level):
    """The class each global state pools into: one frame per state, one-hot."""
    pooled = pool_classes(np.eye(N_STATES), level)
    assert set(np.unique(pooled)) == {0.0, 1.0}
    return pooled.shape[1], tuple(int(c) for c in pooled.argmax(axis=1))


class TestClassMap:
    def test_state_level_is_identity(self):
        n_classes, classes = state_to_class("state")
        assert n_classes == 33
        assert classes == tuple(range(33))

    def test_digit_level_pools_words(self):
        n_classes, classes = state_to_class("digit")
        assert n_classes == 11
        assert classes[:3] == (0, 0, 0)
        assert classes[21:24] == (7, 7, 7)
        assert classes[30:] == (10, 10, 10)  # silence class

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            pool_classes(np.eye(N_STATES), "phone")


class TestPoolClasses:
    def test_digit_mass_sums_member_states(self):
        post = np.zeros((1, N_STATES))
        post[0, 3], post[0, 4], post[0, 5] = 0.2, 0.3, 0.1  # digit "1"
        post[0, 30] = 0.4
        pooled = pool_classes(post, "digit")
        assert abs(pooled[0, 1] - 0.6) < 1e-12

    def test_state_level_identity(self):
        align = random_alignment(5, seed=1)
        pooled = pool_classes(align, "state")
        np.testing.assert_array_equal(pooled, align)

    def test_mass_conserved(self):
        align = random_alignment(7, seed=2)
        pooled = pool_classes(align, "digit")
        np.testing.assert_allclose(pooled.sum(axis=1), align.sum(axis=1), atol=1e-12)


class TestSmooth:
    def test_default_epsilon(self):
        import inspect

        from digitsv.content_kl import EPSILON_DEFAULT

        assert EPSILON_DEFAULT == 1e-5
        assert inspect.signature(smooth).parameters["epsilon"].default == 1e-5

    def test_uniform_stays_uniform(self):
        out = smooth(np.full((3, 4), 0.25))
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_hand_case(self):
        eps = 1e-5
        out = smooth(np.array([[1.0, 0.0]]), eps)
        expected = np.array([(1 + eps) / (1 + 2 * eps), eps / (1 + 2 * eps)])
        np.testing.assert_allclose(out[0], expected, atol=1e-15)

    def test_rows_positive_and_normalized(self):
        rng = np.random.default_rng(3)
        raw = rng.random((6, 11))
        raw[raw < 0.5] = 0.0
        out = smooth(raw)
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_argmax_preserved_when_gap_large(self):
        rng = np.random.default_rng(4)
        raw = rng.random((10, 11))
        raw /= raw.sum(axis=1, keepdims=True)
        out = smooth(raw, 1e-5)
        np.testing.assert_array_equal(out.argmax(axis=1), raw.argmax(axis=1))


class TestKlScore:
    def _smoothed_pair(self, p, q):
        return smooth(np.asarray(p, dtype=float)), smooth(np.asarray(q, dtype=float))

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

    def test_shape_mismatch(self):
        a = smooth(np.full((2, 4), 0.25))
        b = smooth(np.full((3, 4), 0.25))
        with pytest.raises(DigitsvError, match="posterior sequences differ in shape"):
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
        hp = smooth(pool_classes(p, "digit"))
        dp = smooth(pool_classes(q, "digit"))
        kl = kl_score(hp, dp)
        assert kl >= 0.0
        perm = rng.permutation(t)
        hp2 = smooth(pool_classes(p[perm], "digit"))
        dp2 = smooth(pool_classes(q[perm], "digit"))
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

        def score(level):
            return kl_score(smooth(pool_classes(p, level)), smooth(pool_classes(q, level)))

        assert score("digit") <= score("state") + 1e-6


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

    def test_default_map_is_digit_level(self):
        import inspect

        sig = inspect.signature(content_verify)
        assert sig.parameters["level"].default == "digit"
        forced, reference = random_alignment(6, seed=1), random_alignment(6, seed=2)
        assert content_verify(forced, reference) == \
            kl_score(smooth(pool_classes(forced, "digit")), smooth(pool_classes(reference, "digit")))

    def test_dvpo_round_trip_scores_as_in_memory(self, tmp_path, small_corpus, small_models):
        # a forced alignment written to DVPO and read back scores like the
        # float32-rounded in-memory one
        from digitsv import formats
        from digitsv.pipeline import align

        u = small_corpus.tests()[0]
        reference = align("dnn", small_models, u.feats, None)
        forced = align("gmm-hmm", small_models, u.feats, u.content, "viterbi")
        path = tmp_path / "forced.dvpo"
        formats.write_dvpo(path, forced)
        back = formats.read_dvpo(path, N_STATES)
        np.testing.assert_array_equal(back, forced)  # 0/1 rows survive float32
        assert content_verify(back, reference) == content_verify(forced, reference)
