"""Content verification by KL divergence between alignment posteriors.

State (or whole-digit) posterior sequences from the transcription-forced
HMM alignment and the free-running DNN alignment are pooled into phonetic
classes, epsilon-smoothed, and compared frame-by-frame.  A small divergence
means the spoken content matches the prompt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSmoothed, ShapeMismatch, SourceMismatch
from .hmm import N_STATES, STATES_PER_WORD, AlignmentMatrix, AlignSource

EPSILON_DEFAULT = 1e-5

STATE_LEVEL = "state"
DIGIT_LEVEL = "digit"


@dataclass(frozen=True)
class PhoneticClassMap:
    """Total mapping from the 33 global states to phonetic classes."""

    level: str
    state_to_class: tuple

    @classmethod
    def state_level(cls):
        return cls(STATE_LEVEL, tuple(range(N_STATES)))

    @classmethod
    def digit_level(cls):
        # ten digit classes plus silence pooled into an 11th class
        return cls(DIGIT_LEVEL, tuple(s // STATES_PER_WORD for s in range(N_STATES)))

    @classmethod
    def for_level(cls, level: str):
        if level == STATE_LEVEL:
            return cls.state_level()
        if level == DIGIT_LEVEL:
            return cls.digit_level()
        raise ValueError(f"unknown phonetic class level {level!r}")

    @property
    def n_classes(self):
        return max(self.state_to_class) + 1


@dataclass
class ClassPosteriorSequence:
    posteriors: np.ndarray    # (T, P)
    source: str               # "HMM" | "DNN"
    smoothed: bool = False

    def __post_init__(self):
        self.posteriors = np.asarray(self.posteriors, dtype=np.float64)
        if self.posteriors.ndim != 2:
            raise ShapeMismatch("class posteriors must be T x P")
        if np.any(self.posteriors < 0):
            raise ValueError("class posteriors must be nonnegative")


def pool_classes(align: AlignmentMatrix, class_map: PhoneticClassMap) -> ClassPosteriorSequence:
    """Sum state mass into phonetic classes, per frame."""
    pooled = np.zeros((align.n_frames, class_map.n_classes))
    np.add.at(pooled.T, np.asarray(class_map.state_to_class), align.posteriors.T)
    source = "DNN" if align.source == AlignSource.DNN else "HMM"
    return ClassPosteriorSequence(pooled, source, smoothed=False)


def smooth(posteriors: ClassPosteriorSequence, epsilon: float = EPSILON_DEFAULT) -> ClassPosteriorSequence:
    """Add epsilon to every class and renormalize each frame."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    bumped = posteriors.posteriors + epsilon
    bumped /= bumped.sum(axis=1, keepdims=True)
    return ClassPosteriorSequence(bumped, posteriors.source, smoothed=True)


def kl_score(hmm_post: ClassPosteriorSequence, dnn_post: ClassPosteriorSequence) -> float:
    """Frame-averaged KL(HMM || DNN) over phonetic classes; lower = better match."""
    if not (hmm_post.smoothed and dnn_post.smoothed):
        raise NotSmoothed("both posterior sequences must be smoothed first")
    if hmm_post.posteriors.shape != dnn_post.posteriors.shape:
        raise ShapeMismatch("posterior sequences differ in shape")
    if hmm_post.source != "HMM" or dnn_post.source != "DNN":
        raise SourceMismatch(
            f"expected (HMM, DNN) sources, got ({hmm_post.source}, {dnn_post.source})"
        )
    p = hmm_post.posteriors
    q = dnn_post.posteriors
    return float(np.sum(p * (np.log(p) - np.log(q))) / p.shape[0])


def content_verify(hmm_align: AlignmentMatrix, dnn_align: AlignmentMatrix,
                   class_map: PhoneticClassMap | None = None,
                   epsilon: float = EPSILON_DEFAULT) -> float:
    """KL divergence of one utterance's prompt-forced HMM alignment from its DNN one.

    The DNN posteriors act as the transcription-free reference; both are
    pooled into ``class_map``'s classes (digit level by default) and
    epsilon-smoothed.  Lower means the content matches the prompt.
    """
    class_map = class_map or PhoneticClassMap.digit_level()
    return kl_score(smooth(pool_classes(hmm_align, class_map), epsilon),
                    smooth(pool_classes(dnn_align, class_map), epsilon))
