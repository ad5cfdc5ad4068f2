import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsv import features
from digitsv.errors import DigitsvError
from digitsv.features import (
    AudioClip,
    FeatureKind,
    FeatureSequence,
    apply_cmvn,
    dct_matrix,
    extract_fbank,
    extract_mfcc,
    read_wav,
    splice,
    write_wav,
)


def n_frames_for(n_samples):
    """Frame count for a clip length; depends only on the framing constants."""
    if n_samples < features.WINDOW:
        return 0
    return (n_samples - features.WINDOW) // features.SHIFT + 1


def make_clip(n_samples, seed=0, scale=1000.0):
    rng = np.random.default_rng(seed)
    return AudioClip((scale * rng.standard_normal(n_samples)).astype(np.int16))


class TestFraming:
    def test_one_second_gives_98_frames(self):
        feats = extract_fbank(make_clip(16000))
        assert feats.n_frames == (16000 - 400) // 160 + 1 == 98

    def test_frame_count_independent_of_content(self):
        a = extract_fbank(make_clip(7040, seed=1))
        b = extract_fbank(make_clip(7040, seed=2))
        assert a.n_frames == b.n_frames == n_frames_for(7040)

    def test_too_short_clip_rejected(self):
        with pytest.raises(DigitsvError, match="shorter than one 400-sample window"):
            extract_fbank(make_clip(100))

    def test_wrong_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "8k.wav"  # a hand-written PCM16 mono header at 8 kHz
        path.write_bytes(b"RIFF" + struct.pack("<I", 36 + 320) + b"WAVE" + b"fmt "
                         + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
                         + b"data" + struct.pack("<I", 320) + bytes(320))
        with pytest.raises(DigitsvError, match="expected 16000 Hz, got 8000 Hz"):
            read_wav(path)


class TestFbank:
    def test_dimension_is_120(self):
        assert extract_fbank(make_clip(16000)).dim == 120

    def test_kind_tag(self):
        assert extract_fbank(make_clip(8000)).kind == FeatureKind.FBANK120

    def test_outputs_finite(self):
        feats = extract_fbank(make_clip(5000, scale=30000.0))
        assert np.all(np.isfinite(feats.frames))
        quiet = extract_fbank(AudioClip(np.zeros(5000, dtype=np.int16)))
        assert np.all(np.isfinite(quiet.frames))


class TestMfcc:
    def test_dimension_is_60(self):
        assert extract_mfcc(make_clip(16000)).dim == 60

    def test_dc_input_constant_cepstra(self):
        clip = AudioClip(np.full(4000, 5000, dtype=np.int16))
        feats = extract_mfcc(clip)
        np.testing.assert_allclose(
            feats.frames, np.broadcast_to(feats.frames[0], feats.frames.shape), atol=1e-9
        )

    def test_dct_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        log_e = rng.standard_normal(40)
        mat = dct_matrix(20, 40)
        fast = mat @ log_e
        for i in range(20):
            direct = np.sqrt(2.0 / 40) * sum(
                log_e[j] * np.cos(np.pi * i * (2 * j + 1) / (2.0 * 40))
                for j in range(40)
            )
            assert abs(fast[i] - direct) < 1e-10


class TestCmvn:
    def test_zero_mean_unit_variance(self):
        feats = extract_mfcc(make_clip(16000))
        out = apply_cmvn(feats)
        assert np.abs(out.frames.mean(axis=0)).max() < 1e-6
        assert np.abs(out.frames.var(axis=0) - 1.0).max() < 1e-6

    def test_constant_dimension_zeroed(self):
        frames = np.random.default_rng(0).standard_normal((50, 60))
        frames[:, 7] = 3.25
        out = apply_cmvn(FeatureSequence(frames, FeatureKind.MFCC60))
        assert np.all(out.frames[:, 7] == 0.0)

    def test_idempotent(self):
        feats = extract_mfcc(make_clip(16000))
        once = apply_cmvn(feats)
        twice = apply_cmvn(once)
        np.testing.assert_allclose(twice.frames, once.frames, atol=1e-9)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_on_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        frames = 10.0 * rng.standard_normal((rng.integers(2, 40), 60))
        once = apply_cmvn(FeatureSequence(frames, FeatureKind.MFCC60))
        twice = apply_cmvn(once)
        np.testing.assert_allclose(twice.frames, once.frames, atol=1e-9)

    def test_single_frame_rejected(self):
        with pytest.raises(DigitsvError, match="CMVN needs at least 2 frames"):
            apply_cmvn(FeatureSequence(np.zeros((1, 60)), FeatureKind.MFCC60))


class TestSplice:
    def test_default_context_gives_1320(self):
        out = splice(extract_fbank(make_clip(8000)), 5)
        assert out.dim == 1320
        assert out.kind == FeatureKind.SPLICED

    def test_zero_context_is_identity(self):
        feats = extract_fbank(make_clip(8000))
        out = splice(feats, 0)
        np.testing.assert_array_equal(out.frames, feats.frames)
        assert out.kind == FeatureKind.FBANK120

    def test_single_frame_replicates(self):
        frames = np.random.default_rng(1).standard_normal((1, 120))
        out = splice(FeatureSequence(frames, FeatureKind.FBANK120), 5)
        for k in range(11):
            np.testing.assert_array_equal(out.frames[0, 120 * k:120 * (k + 1)], frames[0])

    def test_center_block_recovers_input(self):
        feats = extract_fbank(make_clip(8000))
        out = splice(feats, 5)
        np.testing.assert_array_equal(out.frames[:, 5 * 120:6 * 120], feats.frames)

    def test_wrong_kind_rejected(self):
        with pytest.raises(DigitsvError, match="splicing expects FBANK120 input"):
            splice(extract_mfcc(make_clip(8000)), 5)


class TestStoredPrecision:
    """float32 frames are kept as given; the transforms widen them, exactly."""

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, ">f4", np.float64])
    def test_other_dtypes_become_float64(self, dtype):
        feats = FeatureSequence(np.ones((3, 60), dtype=dtype), FeatureKind.MFCC60)
        assert feats.frames.dtype == np.float64

    def test_float32_is_kept(self):
        frames = np.ones((3, 60), dtype=np.float32)
        assert FeatureSequence(frames, FeatureKind.MFCC60).frames is frames

    def test_cmvn_and_splice_equal_the_widened_path(self):
        wide = extract_fbank(make_clip(8000)).frames.astype(np.float32).astype(np.float64)
        narrow = wide.astype(np.float32)
        for transform in (apply_cmvn, lambda f: splice(f, 5), lambda f: splice(f, 0)):
            got = transform(FeatureSequence(narrow, FeatureKind.FBANK120)).frames
            want = transform(FeatureSequence(wide, FeatureKind.FBANK120)).frames
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)


class TestWav:
    def test_round_trip(self, tmp_path):
        clip = make_clip(5000, seed=9)
        path = tmp_path / "clip.wav"
        write_wav(path, clip)
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, clip.samples)
