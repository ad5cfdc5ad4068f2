"""Acoustic front end: FBank and MFCC extraction, CMVN, frame splicing.

All features come from 16 kHz mono PCM16 audio framed with a 25 ms Hamming
window and 10 ms shift.  Mel warping, per-frame pre-emphasis and the delta
regression follow the usual HTK conventions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DigitsvError

SAMPLE_RATE = 16000
WINDOW = SAMPLE_RATE * 25 // 1000   # samples per 25 ms frame
SHIFT = SAMPLE_RATE * 10 // 1000    # samples per 10 ms shift
N_MELS = 40
N_CEPS = 20
PREEMPHASIS = 0.97
DELTA_WINDOW = 2  # half-width, in frames, of the delta regression
_LOG_FLOOR = 1e-10


class FeatureKind(str, Enum):
    FBANK120 = "fbank120"
    MFCC60 = "mfcc60"
    SPLICED = "spliced"


@dataclass
class AudioClip:
    """Mono PCM16 audio at ``SAMPLE_RATE``."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.int16)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DigitsvError("audio clip is empty")


@dataclass
class FeatureSequence:
    """A T x D matrix of per-frame features and the kind that fixes its width.

    float32 frames (as a DVFE file stores them) are kept as given; any other
    input is converted to float64.  Arithmetic on the frames runs in float64,
    widening one utterance or block at a time.
    """

    frames: np.ndarray
    kind: FeatureKind

    def __post_init__(self):
        if not (isinstance(self.frames, np.ndarray) and self.frames.dtype == np.float32):
            self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise ValueError("frames must be a non-empty T x D matrix")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("features contain non-finite values")
        d = self.frames.shape[1]
        if self.kind == FeatureKind.FBANK120 and d != 120:
            raise ValueError(f"FBANK120 features must have 120 dims, got {d}")
        if self.kind == FeatureKind.MFCC60 and d != 60:
            raise ValueError(f"MFCC60 features must have 60 dims, got {d}")
        if self.kind == FeatureKind.SPLICED and (d % 120 != 0 or (d // 120) % 2 == 0):
            raise ValueError(f"spliced features must stack an odd number of 120-dim blocks, got {d}")

    @property
    def n_frames(self):
        return self.frames.shape[0]

    @property
    def dim(self):
        return self.frames.shape[1]


def read_wav(path) -> AudioClip:
    """Read a RIFF WAV file (PCM16, mono, 16 kHz)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise DigitsvError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    samples = None
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise DigitsvError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if size < 16:
                raise DigitsvError(f"{path}: malformed fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            samples = np.frombuffer(body, dtype="<i2")
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or samples is None:
        raise DigitsvError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != 1 or bits != 16:
        raise DigitsvError(f"{path}: only PCM16 is supported")
    if channels != 1:
        raise DigitsvError(f"{path}: only mono audio is supported")
    if rate != SAMPLE_RATE:
        raise DigitsvError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
    return AudioClip(samples)


def write_wav(path, clip: AudioClip):
    """Write an AudioClip as a minimal PCM16 mono WAV file."""
    pcm = np.asarray(clip.samples, dtype="<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    with open(path, "wb") as fh:
        fh.write(header + pcm)


def mel_scale(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_filterbank(n_mels: int, n_fft: int) -> np.ndarray:
    """Triangular mel filters on rfft bins, (n_mels, n_fft//2 + 1)."""
    n_bins = n_fft // 2 + 1
    freqs = np.arange(n_bins) * SAMPLE_RATE / n_fft
    mel_points = np.linspace(0.0, mel_scale(SAMPLE_RATE / 2.0), n_mels + 2)
    bank = np.zeros((n_mels, n_bins))
    bin_mels = mel_scale(freqs)
    for m in range(n_mels):
        left, center, right = mel_points[m], mel_points[m + 1], mel_points[m + 2]
        up = (bin_mels - left) / (center - left)
        down = (right - bin_mels) / (right - center)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    return bank


def dct_matrix(n_ceps: int, n_mels: int) -> np.ndarray:
    """DCT-II basis scaled by sqrt(2/N), rows are cepstral indices 0..n_ceps-1."""
    j = np.arange(n_mels)
    i = np.arange(n_ceps)[:, None]
    return np.sqrt(2.0 / n_mels) * np.cos(np.pi * i * (2 * j + 1) / (2.0 * n_mels))


def _frame(samples: np.ndarray) -> np.ndarray:
    n = samples.shape[0]
    if n < WINDOW:
        raise DigitsvError(f"clip of {n} samples is shorter than one {WINDOW}-sample window")
    count = (n - WINDOW) // SHIFT + 1
    idx = np.arange(WINDOW)[None, :] + SHIFT * np.arange(count)[:, None]
    return samples[idx].astype(np.float64)


def _log_mel_energies(audio: AudioClip) -> np.ndarray:
    frames = _frame(audio.samples)
    # per-frame pre-emphasis: a constant signal yields identical frames
    frames[:, 1:] -= PREEMPHASIS * frames[:, :-1]
    frames[:, 0] *= 1.0 - PREEMPHASIS
    frames *= np.hamming(WINDOW)
    n_fft = 1 << (WINDOW - 1).bit_length()
    power = np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2
    bank = mel_filterbank(N_MELS, n_fft)
    return np.log(np.maximum(power @ bank.T, _LOG_FLOOR))


def add_deltas(static: np.ndarray) -> np.ndarray:
    """Append delta and delta-delta rows of a (T, D) matrix -> (T, 3D).

    Regression over +-DELTA_WINDOW frames with edge replication.
    """

    def deltas(x):
        padded = np.concatenate(
            [np.repeat(x[:1], DELTA_WINDOW, axis=0), x, np.repeat(x[-1:], DELTA_WINDOW, axis=0)]
        )
        num = np.zeros_like(x)
        for n in range(1, DELTA_WINDOW + 1):
            num += n * (padded[DELTA_WINDOW + n:padded.shape[0] - DELTA_WINDOW + n]
                        - padded[DELTA_WINDOW - n:x.shape[0] + DELTA_WINDOW - n])
        denom = 2.0 * sum(n * n for n in range(1, DELTA_WINDOW + 1))
        return num / denom

    d1 = deltas(static)
    d2 = deltas(d1)
    return np.concatenate([static, d1, d2], axis=1)


def extract_fbank(audio: AudioClip) -> FeatureSequence:
    """120-dim FBank features: 40 log filter-bank energies plus deltas."""
    return FeatureSequence(add_deltas(_log_mel_energies(audio)), FeatureKind.FBANK120)


def extract_mfcc(audio: AudioClip) -> FeatureSequence:
    """60-dim MFCC features: 20 cepstra plus deltas."""
    ceps = _log_mel_energies(audio) @ dct_matrix(N_CEPS, N_MELS).T
    return FeatureSequence(add_deltas(ceps), FeatureKind.MFCC60)


def apply_cmvn(feats: FeatureSequence) -> FeatureSequence:
    """Per-utterance mean/variance normalization.

    Dimensions with (numerically) zero variance are zeroed instead of divided.
    """
    x = np.asarray(feats.frames, dtype=np.float64)
    if x.shape[0] < 2:
        raise DigitsvError("CMVN needs at least 2 frames")
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    centered = x - mean
    zero = var < 1e-18 * (1.0 + mean * mean)
    scale = np.where(zero, 0.0, 1.0 / np.sqrt(np.where(zero, 1.0, var)))
    return replace(feats, frames=centered * scale)


def splice(feats: FeatureSequence, context: int = 5) -> FeatureSequence:
    """Stack +-context neighboring frames; edges replicate the first/last frame."""
    if feats.kind != FeatureKind.FBANK120:
        raise DigitsvError(f"splicing expects FBANK120 input, got {feats.kind.value}")
    if context == 0:
        return replace(feats, frames=np.array(feats.frames, dtype=np.float64))
    x = np.asarray(feats.frames, dtype=np.float64)
    t = x.shape[0]
    padded = np.concatenate(
        [np.repeat(x[:1], context, axis=0), x, np.repeat(x[-1:], context, axis=0)]
    )
    blocks = [padded[k:k + t] for k in range(2 * context + 1)]
    return replace(feats, frames=np.concatenate(blocks, axis=1), kind=FeatureKind.SPLICED)
