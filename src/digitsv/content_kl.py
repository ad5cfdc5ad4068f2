"""Content verification by KL divergence between alignment posteriors.

The prompt-forced state alignment and the free-running classifier
posteriors of one utterance, each a (T, 33) array, are pooled into
phonetic classes (the 33 states, or ten digits plus silence),
epsilon-smoothed, and compared frame by frame.  A small divergence means
the spoken content matches the prompt.
"""

from __future__ import annotations

import numpy as np

from .errors import DigitsvError
from .hmm import N_STATES, STATES_PER_WORD

EPSILON_DEFAULT = 1e-5

# the phonetic class of each global state, per class level
_STATE_CLASSES = {
    "state": np.arange(N_STATES),
    "digit": np.arange(N_STATES) // STATES_PER_WORD,  # silence is the 11th class
}


def pool_classes(posteriors: np.ndarray, level: str) -> np.ndarray:
    """Sum (T, 33) state mass into the classes of ``level`` (``state`` or ``digit``), per frame."""
    if level not in _STATE_CLASSES:
        raise ValueError(f"unknown phonetic class level {level!r}")
    classes = _STATE_CLASSES[level]
    pooled = np.zeros((posteriors.shape[0], classes[-1] + 1))
    np.add.at(pooled.T, classes, posteriors.T)
    return pooled


def smooth(posteriors: np.ndarray, epsilon: float = EPSILON_DEFAULT) -> np.ndarray:
    """Add epsilon to every class and renormalize each frame."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    bumped = posteriors + epsilon
    bumped /= bumped.sum(axis=1, keepdims=True)
    return bumped


def kl_score(p: np.ndarray, q: np.ndarray) -> float:
    """Frame-averaged KL(p || q) of smoothed class posteriors; lower = better match."""
    if p.shape != q.shape:
        raise DigitsvError("posterior sequences differ in shape")
    return float(np.sum(p * (np.log(p) - np.log(q))) / p.shape[0])


def content_verify(forced: np.ndarray, reference: np.ndarray, level: str = "digit",
                   epsilon: float = EPSILON_DEFAULT) -> float:
    """KL divergence of one utterance's prompt-forced alignment from its classifier posteriors.

    The classifier posteriors act as the transcription-free reference; both
    are pooled into ``level``'s classes and epsilon-smoothed.  Lower means
    the content matches the prompt.
    """
    return kl_score(smooth(pool_classes(forced, level), epsilon),
                    smooth(pool_classes(reference, level), epsilon))
