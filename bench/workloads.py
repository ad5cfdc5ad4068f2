"""Benchmark workloads and the inputs the benchmark generates for them.

Each workload is a corpus shape chosen so that one group of layers does most
of the work: the per-trial backends (`trial_fanout`), the per-prompt
alignments (`prompt_sparse`) or model training plus per-utterance file
handoffs (`enroll_heavy`).  The synthetic speech of a workload comes from a
fixed corpus seed, so the EERs are a fingerprint of the program and not of
the draw; the run seed decides the order of the trial list and the content
of the WAV clips.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from digitsv import features

# ROADMAP's non-saturated operating point: the default corpus has 0.00% EER
# and could not show a regression.
SYNTH_FLAGS = ("--speaker-scale", "0.15", "--tw-mode", "single_digit")
CLIP_SECONDS = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    speakers: int
    test_per_speaker: int
    # keep TC and TW per test utterance plus one IC/IW pair with a drawn impostor
    sparse: bool
    # write one WAV clip per speaker and run extract-feats on it
    front_end: bool
    corpus_seed: int


# Sizes keep one untraced run under 40 s on two cores.  Only about 1.5% of
# single-digit TW trials are confusable, so a small corpus often has none and
# its content EER reads 0; each corpus seed is the first from 42 up whose
# content EER is non-zero.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "trial_fanout",
            "full trial list, so each (utterance, prompt) alignment serves many trials "
            "and the per-trial scoring backends dominate",
            speakers=12, test_per_speaker=4, sparse=False, front_end=False, corpus_seed=43),
        Workload(
            "prompt_sparse",
            "two trials per (utterance, prompt), so per-prompt alignment, mixture and "
            "classifier posteriors dominate and the LLR backend does little",
            speakers=12, test_per_speaker=10, sparse=True, front_end=False, corpus_seed=43),
        Workload(
            "enroll_heavy",
            "many speakers with one test each plus a WAV front end, so model training and "
            "per-utterance file handoffs dominate and scoring does little",
            speakers=20, test_per_speaker=1, sparse=True, front_end=True, corpus_seed=52),
    )
}

# Runs every stage in seconds for `run.py --self-check`; not a benchmark workload.
TINY = Workload("tiny", "self-check", speakers=11, test_per_speaker=1, sparse=True,
                front_end=True, corpus_seed=42)


def read_pairs(path):
    """`<a> <b> ...` lines as lists of fields."""
    with open(path) as fh:
        return [line.split() for line in fh if line.strip()]


def sparse_trials(rows, corpus_seed):
    """TC and TW per test utterance plus the IC/IW pair of one drawn impostor."""
    rng = np.random.default_rng(corpus_seed)
    by_utt = {}
    for row in rows:
        by_utt.setdefault(row[1], []).append(row)
    kept = []
    for utt, utt_rows in by_utt.items():
        own = [r for r in utt_rows if r[3] in ("TC", "TW")]
        impostors = sorted({r[0] for r in utt_rows if r[3] in ("IC", "IW")})
        pick = impostors[int(rng.integers(len(impostors)))]
        kept.extend(own + [r for r in utt_rows if r[0] == pick])
    return kept


def clip_samples(rng, seconds):
    """Deterministic tone-pair 'digits' with noise, as PCM16 samples."""
    n = int(seconds * features.SAMPLE_RATE)
    t = np.arange(n) / features.SAMPLE_RATE
    segment = max(1, n // 6)
    signal = np.zeros(n)
    for start in range(0, n, segment):
        low, high = 300 + 80 * rng.integers(10), 1200 + 110 * rng.integers(10)
        part = slice(start, start + segment)
        signal[part] = np.sin(2 * np.pi * low * t[part]) + 0.6 * np.sin(2 * np.pi * high * t[part])
    signal += 0.05 * rng.standard_normal(n)
    return np.round(8000 * signal).astype(np.int16)


def write_inputs(work, workload, seed):
    """Write the trial list, utt2spk and WAV clips the walkthrough feeds the program.

    Returns the paths the walkthrough needs.
    """
    corpus = os.path.join(work, "corpus")
    out = os.path.join(work, "bench")
    os.makedirs(out, exist_ok=True)
    rows = read_pairs(os.path.join(corpus, "trials", "trials.txt"))
    if workload.sparse:
        rows = sparse_trials(rows, workload.corpus_seed)
    order = np.random.default_rng(seed).permutation(len(rows))
    trials = os.path.join(out, "trials.txt")
    with open(trials, "w") as fh:
        fh.writelines(" ".join(rows[k]) + "\n" for k in order)

    enroll = read_pairs(os.path.join(corpus, "splits", "enroll.txt"))
    utt2spk = os.path.join(out, "utt2spk.txt")
    with open(utt2spk, "w") as fh:
        fh.writelines(f"{utt} {spk}\n" for utt, spk in enroll)

    clips = []
    if workload.front_end:
        wav_dir = os.path.join(work, "wav")
        os.makedirs(wav_dir, exist_ok=True)
        rng = np.random.default_rng(seed)
        for spk in sorted({spk for _, spk in enroll}):
            path = os.path.join(wav_dir, f"{spk}.wav")
            features.write_wav(path, features.AudioClip(clip_samples(rng, CLIP_SECONDS)))
            clips.append(path)
    return {"trials": trials, "utt2spk": utt2spk, "enroll": [u for u, _ in enroll],
            "clips": clips}
