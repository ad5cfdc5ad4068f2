"""GMM-MAP speaker enrollment and log-likelihood-ratio scoring.

Only mixture means are adapted: the adapted mean interpolates the
background mean toward the enrollment sample mean with data-dependent
weight N/(N+r), where r is the relevance factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnrollment, NoRetainedFrames, ShapeMismatch, SourceMismatch
from .features import FeatureSequence
from .pgmm import Background, MixturePosteriors, SuffStats

RELEVANCE_DEFAULT = 5.0


@dataclass
class SpeakerModel:
    means: np.ndarray         # (M, D) adapted means
    background_id: str
    relevance: float

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        if not np.all(np.isfinite(self.means)):
            raise ValueError("adapted means must be finite")


def map_adapt(background: Background, stats: SuffStats,
              relevance: float = RELEVANCE_DEFAULT) -> SpeakerModel:
    """Mean-only MAP adaptation: mu_hat = F/(N+r) + mu per mixture."""
    if relevance <= 0:
        raise ValueError("relevance factor must be positive")
    if stats.f.shape != background.means.shape:
        raise ShapeMismatch(
            f"stats shape {stats.f.shape} vs background {background.means.shape}"
        )
    alpha = 1.0 / (stats.n + relevance)
    means = alpha[:, None] * stats.f + background.means
    return SpeakerModel(means, background.model_id, relevance)


def enroll(background: Background, stats_list, relevance: float = RELEVANCE_DEFAULT) -> SpeakerModel:
    """Merge the enrollment utterances' statistics in order, then adapt once.

    ``stats_list`` is any iterable of ``SuffStats``, read once.
    """
    stats, merged = background.empty_stats(), 0
    for merged, item in enumerate(stats_list, start=1):
        stats = stats.merge(item)
    if not merged:
        raise EmptyEnrollment("enrollment needs at least one utterance")
    return map_adapt(background, stats, relevance)


class LinearLlr:
    """Enrolled speakers stacked for scoring over centred statistics.

    With shared variances ``llr_score`` is exactly linear in the statistics
    (Glembek et al., ICASSP 2009): with d = mu_s - mu_b and W = d / var,
    the posterior-weighted sum is W . F - h . N, h = 0.5 * sum_d d * W.
    W is stacked once as (speakers x M*D), so one statistics vector scores
    every speaker with two matrix-vector products.
    """

    def __init__(self, speakers: dict, background: Background):
        enrolled_on = {model.background_id for model in speakers.values()}
        if enrolled_on != {background.model_id}:
            raise SourceMismatch(
                f"speaker models were enrolled with the {', '.join(sorted(enrolled_on))} "
                f"alignment source; scoring requested {background.model_id}"
            )
        for spk, model in speakers.items():
            if model.means.shape != background.means.shape:
                raise ShapeMismatch(
                    f"speaker {spk!r} model {model.means.shape} does not match "
                    f"the background {background.means.shape}")
        self.background = background
        self.index = {spk: k for k, spk in enumerate(speakers)}
        # filled one speaker at a time: no speakers x M*D temporaries
        self.weights = np.empty((len(speakers), background.means.size))
        self.halves = np.empty((len(speakers), background.n_mixtures))
        for k, model in enumerate(speakers.values()):
            offsets = model.means - background.means
            weights = np.divide(offsets, background.variances,
                                out=self.weights[k].reshape(background.means.shape))
            self.halves[k] = 0.5 * np.sum(offsets * weights, axis=1)

    def scores(self, stats: SuffStats, retained: int) -> np.ndarray:
        """LLR of every speaker, in ``index`` order, given one key's statistics.

        ``retained`` is the number of frames carrying any mixture mass, the
        divisor ``llr_score`` uses.
        """
        if stats.f.shape != self.background.means.shape:
            raise ShapeMismatch("statistics do not match the background layout")
        if retained == 0:
            raise NoRetainedFrames("no frame carries any non-silence mixture mass")
        return (self.weights @ stats.f.reshape(-1) - self.halves @ stats.n) / retained


def llr_score(speaker: SpeakerModel, background: Background,
              gammas: MixturePosteriors, feats: FeatureSequence) -> float:
    """Average per-frame log-likelihood ratio of speaker vs background.

    Shared variances make the log-determinants cancel, leaving a
    posterior-weighted difference of quadratic terms.  The sum is divided
    by the number of frames carrying any retained mixture mass.  The
    per-frame reference for ``LinearLlr``.
    """
    if speaker.means.shape != background.means.shape:
        raise ShapeMismatch("speaker and background models differ in shape")
    if gammas.gammas.shape[1] != background.means.shape[0]:
        raise ShapeMismatch("posterior columns do not match the background mixtures")
    if feats.dim != background.means.shape[1]:
        raise ShapeMismatch("feature dim does not match the model")
    if gammas.n_frames != feats.n_frames:
        raise ShapeMismatch("posterior and feature frame counts differ")

    g = gammas.gammas
    rows, cols = np.nonzero(g)
    retained = np.unique(rows).size
    if retained == 0:
        raise NoRetainedFrames("no frame carries any non-silence mixture mass")

    x = feats.frames[rows]
    mu_b = background.means[cols]
    mu_s = speaker.means[cols]
    inv2v = 0.5 / background.variances[cols]
    per_entry = np.sum(((x - mu_b) ** 2 - (x - mu_s) ** 2) * inv2v, axis=1)
    return float(np.dot(g[rows, cols], per_entry) / retained)
