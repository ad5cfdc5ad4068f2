"""GMM-MAP speaker enrollment and log-likelihood-ratio scoring.

Only mixture means are adapted: the adapted mean interpolates the
background mean toward the enrollment sample mean with data-dependent
weight N/(N+r), where r is the relevance factor.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

import numpy as np

from .errors import DigitsvError
from .pgmm import Background, SuffStats

RELEVANCE_DEFAULT = 5.0


def map_adapt(background: Background, stats: SuffStats,
              relevance: float = RELEVANCE_DEFAULT) -> np.ndarray:
    """The (M, D) adapted means of mean-only MAP: mu_hat = F/(N+r) + mu per mixture."""
    if relevance <= 0:
        raise ValueError("relevance factor must be positive")
    if stats.f.shape != background.means.shape:
        raise DigitsvError(
            f"stats shape {stats.f.shape} vs background {background.means.shape}"
        )
    alpha = 1.0 / (stats.n + relevance)
    return alpha[:, None] * stats.f + background.means


def enroll(background: Background, stats_list, relevance: float = RELEVANCE_DEFAULT) -> np.ndarray:
    """Merge the enrollment utterances' statistics in order, then adapt once.

    ``stats_list`` is any iterable of ``SuffStats``, read once.  They are added
    into one accumulator, and none is held while the next is produced.
    """
    stats, merged = background.empty_stats(), 0
    for item in stats_list:  # enumerate's reused tuple would hold the last item
        stats.add(item)
        merged += 1
        del item
    if not merged:
        raise DigitsvError("enrollment needs at least one utterance")
    return map_adapt(background, stats, relevance)


class SpeakerModels(Mapping):
    """Enrolled speakers whose adapted means are held once, as one (speakers, M, D) array.

    A read-only mapping from speaker id to that speaker's (M, D) adapted
    means, in ``ids`` order; each is a view of its row of ``means``.  Every
    speaker shares ``background_id`` and ``relevance``.  Ids must be unique
    strings, one per row of a 3-D ``means``, and the relevance positive;
    anything else raises ValueError.  ``release`` hands the array on.
    """

    def __init__(self, ids, means, background_id: str, relevance: float):
        if not isinstance(ids, (list, tuple)) or not all(isinstance(s, str) for s in ids):
            raise ValueError("speaker ids must be a list of strings")
        twice = sorted(spk for spk, n in Counter(ids).items() if n > 1)
        if twice:
            raise ValueError(f"speaker ids {twice} appear more than once")
        if not isinstance(means, np.ndarray) or means.dtype != np.float64 or means.ndim != 3:
            raise ValueError("speaker means must be one float64 (speakers, M, D) array")
        if means.shape[0] != len(ids):
            raise ValueError(f"{len(ids)} speaker ids for {means.shape[0]} models")
        if not all(np.all(np.isfinite(row)) for row in means):  # one row's mask at a time
            raise ValueError("adapted means must be finite")
        if not isinstance(background_id, str):
            raise ValueError("background id must be a string")
        if not isinstance(relevance, (int, float)) or not relevance > 0:
            raise ValueError(f"relevance factor must be positive, got {relevance!r}")
        self.ids = tuple(ids)
        self.means = means
        self.background_id = background_id
        self.relevance = relevance
        self._rows = {spk: k for k, spk in enumerate(self.ids)}

    def __getitem__(self, spk) -> np.ndarray:
        return self.means[self._rows[spk]]

    def __contains__(self, spk) -> bool:
        return spk in self._rows

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)

    def release(self) -> np.ndarray:
        """The stacked means, handed to the caller, who may overwrite them.

        The roster keeps no reference and is left empty, so no model can be
        read from it once its means may have changed.
        """
        means = self.means
        self.ids, self._rows = (), {}
        self.means = np.empty((0, *means.shape[1:]))
        return means


class LinearLlr:
    """Enrolled speakers stacked for scoring over centred statistics.

    With shared variances the log-determinants cancel, and the posterior-weighted
    sum of per-frame log-likelihood ratios is exactly linear in the statistics
    (Glembek et al., ICASSP 2009): with d = mu_s - mu_b and W = d / var,
    it is W . F - h . N, h = 0.5 * sum_d d * W.
    W is stacked once as (speakers x M*D), so one statistics vector scores
    every speaker with two matrix-vector products.

    Ownership: the scorer takes the roster's stacked means
    (``SpeakerModels.release``, which leaves the roster empty) and turns them
    into the weights in place, so the models are never held twice.  A caller
    that still needs the models scores a copy of the roster.  A roster that
    fails the source or shape check is left as it was.
    """

    def __init__(self, speakers: SpeakerModels, background: Background):
        if speakers.background_id != background.model_id:
            raise DigitsvError(
                f"speaker models were enrolled with the {speakers.background_id} "
                f"alignment source; scoring requested {background.model_id}"
            )
        if speakers.means.shape[1:] != background.means.shape:
            raise DigitsvError(
                f"speaker models {speakers.means.shape[1:]} do not match "
                f"the background {background.means.shape}")
        self.background = background
        self.index = {spk: k for k, spk in enumerate(speakers)}
        means = speakers.release()
        # one speaker at a time, in place: no speakers x M*D temporaries
        self.weights = means.reshape(len(means), background.means.size)
        self.halves = np.empty((len(means), background.n_mixtures))
        quotient = np.empty(background.means.shape)
        for k, row in enumerate(self.weights):
            offsets = row.reshape(background.means.shape)
            np.subtract(offsets, background.means, out=offsets)
            np.divide(offsets, background.variances, out=quotient)
            self.halves[k] = 0.5 * np.sum(np.multiply(offsets, quotient, out=offsets), axis=1)
            offsets[...] = quotient

    def scores(self, stats: SuffStats, retained: int) -> np.ndarray:
        """LLR of every speaker, in ``index`` order, given one key's statistics.

        ``retained`` is the number of frames carrying any mixture mass: the
        score is the average log-likelihood ratio over those frames.
        """
        if stats.f.shape != self.background.means.shape:
            raise DigitsvError("statistics do not match the background layout")
        if retained == 0:
            raise DigitsvError("no frame carries any non-silence mixture mass")
        return (self.weights @ stats.f.reshape(-1) - self.halves @ stats.n) / retained

