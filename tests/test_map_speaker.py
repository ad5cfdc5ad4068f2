import numpy as np
import pytest

from conftest import llr_score, mfcc_feats
from digitsv.errors import DigitsvError
from digitsv.features import FeatureKind, FeatureSequence
from digitsv.map_speaker import RELEVANCE_DEFAULT, SpeakerModels, enroll, map_adapt
from digitsv.pgmm import Background, SuffStats, accumulate_stats


def toy_background(m=4, dim=60, seed=0):
    rng = np.random.default_rng(seed)
    return Background(rng.standard_normal((m, dim)), 0.5 + rng.random((m, dim)), "toy")


class TestMapAdapt:
    def test_default_relevance_is_five(self):
        assert RELEVANCE_DEFAULT == 5.0

    def test_zero_counts_leave_background(self):
        bg = toy_background()
        stats = bg.empty_stats()
        np.testing.assert_array_equal(map_adapt(bg, stats), bg.means)

    def test_hand_case_alpha_one_half(self):
        # N=5, r=5: the adapted mean moves halfway to the sample mean
        bg = toy_background(m=1)
        sample_mean = bg.means[0] + 2.0
        stats = SuffStats(np.array([5.0]), (5.0 * (sample_mean - bg.means[0]))[None, :])
        np.testing.assert_allclose(map_adapt(bg, stats, relevance=5.0)[0],
                                   bg.means[0] + 0.5 * (sample_mean - bg.means[0]),
                                   atol=1e-12)

    def test_interpolation_bound(self):
        rng = np.random.default_rng(1)
        bg = toy_background(seed=2)
        n = rng.random(4) * 10 + 0.1
        sample_means = bg.means + rng.standard_normal(bg.means.shape)
        stats = SuffStats(n, n[:, None] * (sample_means - bg.means))
        means = map_adapt(bg, stats, relevance=5.0)
        lo = np.minimum(bg.means, sample_means) - 1e-12
        hi = np.maximum(bg.means, sample_means) + 1e-12
        assert np.all(means >= lo) and np.all(means <= hi)

    def test_large_count_limit(self):
        bg = toy_background(m=1, seed=3)
        target = bg.means[0] + 3.0
        n = 1e6
        stats = SuffStats(np.array([n]), (n * (target - bg.means[0]))[None, :])
        np.testing.assert_allclose(map_adapt(bg, stats, relevance=5.0)[0], target, atol=1e-4)

    def test_shape_mismatch(self):
        bg = toy_background()
        stats = SuffStats(np.zeros(3), np.zeros((3, 60)))
        with pytest.raises(DigitsvError, match="stats shape"):
            map_adapt(bg, stats)


def full_mass_posteriors(t, m, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.random((t, m))
    g /= g.sum(axis=1, keepdims=True)
    return g


class TestLlrScore:
    def test_identical_models_score_zero(self):
        bg = toy_background(seed=4)
        speaker = map_adapt(bg, bg.empty_stats())
        feats = mfcc_feats(np.random.default_rng(5).standard_normal((6, 2)))
        gammas = full_mass_posteriors(6, 4, seed=6)
        assert llr_score(speaker, bg, gammas, feats) == 0.0

    def test_frames_at_adapted_means_score_positive(self):
        rng = np.random.default_rng(7)
        bg = toy_background(m=2, seed=7)
        shift = np.sqrt(bg.variances)  # one standard deviation
        speaker = bg.means + shift
        frames = speaker[rng.integers(0, 2, 30)] + 0.1 * rng.standard_normal((30, 60))
        feats = FeatureSequence(frames, FeatureKind.MFCC60)
        gammas = full_mass_posteriors(30, 2, seed=8)
        assert llr_score(speaker, bg, gammas, feats) > 0.0

    def test_invariant_to_frame_permutation(self):
        rng = np.random.default_rng(9)
        bg = toy_background(seed=10)
        stats = SuffStats(rng.random(4), rng.standard_normal((4, 60)))
        speaker = map_adapt(bg, stats)
        frames = rng.standard_normal((12, 60))
        g = rng.random((12, 4))
        perm = rng.permutation(12)
        a = llr_score(speaker, bg, g, FeatureSequence(frames, FeatureKind.MFCC60))
        b = llr_score(speaker, bg, g[perm], FeatureSequence(frames[perm], FeatureKind.MFCC60))
        assert abs(a - b) < 1e-10

    def test_all_silence_rejected(self):
        bg = toy_background(seed=11)
        speaker = map_adapt(bg, bg.empty_stats())
        gammas = np.zeros((5, 4))
        feats = mfcc_feats(np.zeros((5, 2)))
        with pytest.raises(DigitsvError, match="no frame carries any non-silence mixture mass"):
            llr_score(speaker, bg, gammas, feats)


class TestEnroll:
    def test_single_utterance_equals_map_adapt(self):
        rng = np.random.default_rng(12)
        bg = toy_background(seed=12)
        gammas = full_mass_posteriors(8, 4, seed=13)
        feats = mfcc_feats(rng.standard_normal((8, 2)))
        stats = accumulate_stats(gammas, feats, bg.means, "toy")
        direct = map_adapt(bg, stats)
        via_enroll = enroll(bg, [stats])
        np.testing.assert_allclose(via_enroll, direct, atol=1e-12)

    def test_merge_then_adapt_not_adapt_then_average(self):
        rng = np.random.default_rng(14)
        bg = toy_background(seed=14)
        stats_list = []
        for k in range(3):
            gammas = full_mass_posteriors(6, 4, seed=20 + k)
            feats = mfcc_feats(rng.standard_normal((6, 2)))
            stats_list.append(accumulate_stats(gammas, feats, bg.means, "toy"))
        merged = bg.empty_stats()
        for stats in stats_list:
            merged = merged.add(stats)
        expected = map_adapt(bg, merged)
        got = enroll(bg, iter(stats_list))  # any iterable, read once
        np.testing.assert_array_equal(got, expected)
        # and the adapt-then-average order differs
        averaged = np.mean([map_adapt(bg, stats) for stats in stats_list], axis=0)
        assert np.abs(averaged - expected).max() > 1e-6

    def test_empty_enrollment(self):
        for empty in ([], iter([])):
            with pytest.raises(DigitsvError, match="enrollment needs at least one utterance"):
                enroll(toy_background(), empty)


class TestSpeakerModels:
    def test_speaker_is_a_view_of_its_row(self):
        means = np.random.default_rng(15).standard_normal((3, 4, 2))
        speakers = SpeakerModels(["a", "b", "c"], means, "toy", 5.0)
        for k, spk in enumerate(speakers):
            assert np.shares_memory(speakers[spk], means)
            np.testing.assert_array_equal(speakers[spk], means[k])
