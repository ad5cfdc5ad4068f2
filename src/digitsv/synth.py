"""Deterministic synthetic corpus generator.

Utterances are synthesized directly in MFCC-like feature space: each digit
walks its three canonical state means (plus edge silence) for a sampled
dwell time, offset by a per-speaker vector and spherical noise.  Enrollment
uses three ten-digit strings per speaker, tests are five-digit strings, and
trial lists cover all four TC/TW/IC/IW categories.  Everything is a pure
function of the seed, and so is the order of the draws: each state draws its
dwell, then its noise block.  Changing that order changes every corpus and
every benchmark EER.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Utterance
from .errors import DigitsvError
from .eval_trials import TrialRecord
from .features import FeatureKind, FeatureSequence
from .hmm import N_STATES, SILENCE_WORD, word_states

TW_MODES = ("whole_prompt", "single_digit")
N_ENROLL = 3        # ten-digit enrollment utterances per speaker
ENROLL_DIGITS = 10
TEST_DIGITS = 5
DIM = 60            # features are synthesized in the 60-dim MFCC space


@dataclass
class SynthConfig:
    n_speakers: int = 20
    n_test: int = 5             # five-digit test utterances per speaker
    mean_separation: float = 4.0   # canonical state spread, in noise units
    speaker_scale: float = 0.35
    noise_scale: float = 1.0
    # flat-start training recovers the true states reliably when dwell
    # variance is modest and no unprompted silences appear inside utterances
    dwell_min: int = 4
    dwell_max: int = 6
    between_sil_prob: float = 0.0
    tw_mode: str = "whole_prompt"
    seed: int = 42

    def __post_init__(self):
        if self.n_speakers < 2:
            raise DigitsvError("need at least 2 speakers")
        if not all(0 < v < np.inf for v in (self.speaker_scale, self.noise_scale,
                                             self.mean_separation)):  # also rejects nan
            raise DigitsvError("scales must be positive and finite")
        if self.seed < 0:
            raise DigitsvError(f"seed must not be negative, got {self.seed}")
        if self.dwell_min < 2 or self.dwell_max < self.dwell_min:
            raise DigitsvError("dwell range must satisfy 2 <= min <= max")
        if self.tw_mode not in TW_MODES:
            raise DigitsvError(f"tw_mode must be one of {TW_MODES}")
        if not 0 <= self.between_sil_prob <= 1:
            raise DigitsvError("between_sil_prob must lie in [0, 1]")
        if self.n_test < 1:
            raise DigitsvError("n_test must be at least 1")


def corrupt_prompt(prompt: str, mode: str = "whole_prompt", seed: int = 0) -> str:
    """Produce a wrong-content prompt, guaranteed to differ from the input."""
    if not prompt:
        raise DigitsvError("cannot corrupt an empty prompt")
    if mode not in TW_MODES:
        raise DigitsvError(f"tw_mode must be one of {TW_MODES}")
    rng = np.random.default_rng(seed)
    digits = "0123456789"
    if mode == "single_digit":
        pos = int(rng.integers(len(prompt)))
        others = [d for d in digits if d != prompt[pos]]
        repl = others[int(rng.integers(len(others)))]
        return prompt[:pos] + repl + prompt[pos + 1:]
    while True:
        cand = "".join(digits[i] for i in rng.integers(0, 10, size=len(prompt)))
        if cand != prompt:
            return cand


def _random_digits(rng, length):
    return "".join(str(d) for d in rng.integers(0, 10, size=length))


def _state_sequence(content: str, rng, cfg: SynthConfig):
    """Global state ids visited: edge silence, digits, occasional inner silence."""
    words = [SILENCE_WORD]
    for k, ch in enumerate(content):
        if k > 0 and rng.random() < cfg.between_sil_prob:
            words.append(SILENCE_WORD)
        words.append(int(ch))
    words.append(SILENCE_WORD)
    states = []
    for w in words:
        states.extend(word_states(w))
    return states


def _synthesize(content: str, base, rng, cfg: SynthConfig) -> FeatureSequence:
    """One utterance over ``base``, the speaker's (N_STATES, DIM) state means."""
    states = _state_sequence(content, rng, cfg)
    noise, dwells = [], []
    for _ in states:  # per state: its dwell, then its noise block
        dwells.append(int(rng.integers(cfg.dwell_min, cfg.dwell_max + 1)))
        noise.append(rng.standard_normal((dwells[-1], DIM)))
    frames = np.concatenate(noise)
    frames *= cfg.noise_scale
    frames += np.repeat(base[states], dwells, axis=0)
    return FeatureSequence(frames, FeatureKind.MFCC60)


def generate_corpus(cfg: SynthConfig | None = None) -> Corpus:
    """Build the full corpus: features, transcripts, and trial lists."""
    cfg = cfg or SynthConfig()
    rng = np.random.default_rng(cfg.seed)

    state_means = (cfg.mean_separation * cfg.noise_scale / np.sqrt(2.0)) \
        * rng.standard_normal((N_STATES, DIM))
    # speaker voices color each phonetic state differently; a shared additive
    # offset would let an unsupervised background model match the aligned ones
    offsets = cfg.speaker_scale * rng.standard_normal((cfg.n_speakers, N_STATES, DIM))
    speakers = [f"s{k:03d}" for k in range(cfg.n_speakers)]

    # enrollment transcripts; resample until all ten digits occur somewhere
    while True:
        enroll_texts = [
            [_random_digits(rng, ENROLL_DIGITS) for _ in range(N_ENROLL)]
            for _ in range(cfg.n_speakers)
        ]
        covered = set("".join(t for per in enroll_texts for t in per))
        if covered >= set("0123456789"):
            break

    utterances, wrong = [], {}  # wrong: each test's corrupted prompt, for TW/IW trials
    for k, spk in enumerate(speakers):
        base = state_means + offsets[k]
        for j, text in enumerate(enroll_texts[k]):
            feats = _synthesize(text, base, rng, cfg)
            utterances.append(Utterance(f"{spk}_e{j}", spk, text, "enroll", feats))
        for j in range(cfg.n_test):
            text = _random_digits(rng, TEST_DIGITS)
            feats = _synthesize(text, base, rng, cfg)
            wrong[f"{spk}_t{j}"] = corrupt_prompt(text, cfg.tw_mode, int(rng.integers(2 ** 31)))
            utterances.append(Utterance(f"{spk}_t{j}", spk, text, "test", feats))

    corpus = Corpus(utterances, [])
    tests = corpus.tests()
    for spk in speakers:
        for utt in tests:
            correct, corrupted = ("TC", "TW") if utt.speaker == spk else ("IC", "IW")
            corpus.trials.append(TrialRecord(spk, utt.utt_id, utt.content, correct))
            corpus.trials.append(TrialRecord(spk, utt.utt_id, wrong[utt.utt_id], corrupted))
    return corpus
