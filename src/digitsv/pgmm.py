"""Phonetic GMMs and normalized Baum-Welch statistics.

A Pgmm stacks one diagonal GMM per digit state (silence excluded) into one
parameter block.  Its rows 0..29 are the digit states, as an HmmSet's are,
so every consumer here reads those rows of either model.  Any
alignment source supplies per-frame state posteriors; multiplying by the
within-state component posterior gives joint mixture occupancies (a UBM's
are its component posteriors), from which zeroth- and first-order
statistics are accumulated for the MAP and i-vector backends, the only two
orders either reads.  The ``Background`` they are centred on is a (M, D)
view of the model's digit-state rows, or of all a UBM's mixtures.
Statistics merge by adding one utterance's into an accumulator in place.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import gmm as gmm_mod
from .errors import DegenerateData, DigitsvError, EmptyStateWarning, StarvedState
from .features import FeatureSequence
from .gmm import _EMPTY_COUNT, DiagGmm, StateMixtures
from .hmm import DIGIT_STATES, N_STATES

PRUNE_DEFAULT = 1e-6


@dataclass
class Pgmm(StateMixtures):
    """One GMM per digit state, stacked: row s is digit state s; 30 x n_components mixtures."""

    def __post_init__(self):
        super().__post_init__()
        if self.weights.shape[0] != len(DIGIT_STATES):
            raise ValueError(f"need {len(DIGIT_STATES)} digit-state models, "
                             f"got {self.weights.shape[0]}")


@dataclass
class SuffStats:
    """Zeroth- and first-order statistics centered on the background means."""

    n: np.ndarray    # (M,)
    f: np.ndarray    # (M, D) sum of gamma * (x - mu)
    background_id: str | None = None

    def __post_init__(self):
        self.n = np.asarray(self.n, dtype=np.float64)
        self.f = np.asarray(self.f, dtype=np.float64)
        if self.n.shape[0] != self.f.shape[0]:
            raise DigitsvError("inconsistent statistics shapes")

    def add(self, other: "SuffStats") -> "SuffStats":
        """Add ``other`` into these statistics in place, and return them."""
        if self.f.shape != other.f.shape:
            raise DigitsvError("cannot merge statistics of different shapes")
        if (self.background_id and other.background_id
                and self.background_id != other.background_id):
            raise DigitsvError("cannot merge statistics from different backgrounds")
        self.n += other.n
        self.f += other.f
        self.background_id = self.background_id or other.background_id
        return self


@dataclass
class Background:
    """Flattened mixture view of a UBM, HMM state set, or phonetic GMM.

    The means and variances are views of the model's own arrays, never
    copies, so nothing may write into them.
    """

    means: np.ndarray       # (M, D)
    variances: np.ndarray   # (M, D)
    model_id: str = ""

    @classmethod
    def of(cls, model: DiagGmm, model_id: str):
        """A UBM's mixtures, or the digit-state rows 0..29 of an HmmSet or Pgmm as (30 * C, D)."""
        rows = len(DIGIT_STATES) if isinstance(model, StateMixtures) else None
        return cls(model.means[:rows].reshape(-1, model.dim),
                   model.variances[:rows].reshape(-1, model.dim), model_id)

    @property
    def n_mixtures(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    def empty_stats(self) -> SuffStats:
        return SuffStats(
            np.zeros(self.n_mixtures),
            np.zeros((self.n_mixtures, self.dim)),
            self.model_id or None,
        )


def mixture_posteriors(model: DiagGmm, align: np.ndarray | None, feats: FeatureSequence,
                       prune: float = PRUNE_DEFAULT) -> np.ndarray:
    """(T, M) mixture posteriors of the T feature frames, in the background's column order.

    For a UBM ``align`` is None and these are its component posteriors.  For
    a Pgmm or an HmmSet, whose rows 0..29 are the digit states alike,
    ``align`` is the (T, 33) state alignment and each entry is a state's mass
    times its within-state component posterior, the columns grouping each
    digit state's components in state order.  Only digit states contribute:
    the silence-state mass is discarded (never renormalized), so a row
    carries total mass <= 1.  Entries below ``prune`` are zeroed for sparsity.
    """
    if align is not None and align.shape != (feats.n_frames, N_STATES):
        raise DigitsvError(f"alignment is {align.shape}, features need "
                           f"({feats.n_frames}, {N_STATES})")
    gammas = gmm_mod.loglikes_and_posteriors(model, feats.frames)[1]
    if align is not None:
        digits = len(DIGIT_STATES)
        gammas = (align[:, :digits, None] * gammas[:, :digits]).reshape(feats.n_frames, -1)
    if prune > 0:
        gammas[gammas < prune] = 0.0
    return gammas


def accumulate_stats(gammas: np.ndarray, feats: FeatureSequence,
                     means: np.ndarray, background_id: str | None = None) -> SuffStats:
    """Normalized Baum-Welch statistics of (T, M) mixture posteriors around the means."""
    means = np.asarray(means, dtype=np.float64)
    if gammas.ndim != 2 or gammas.shape[0] != feats.n_frames:
        raise DigitsvError("posteriors must be one row per feature frame")
    if means.shape != (gammas.shape[1], feats.dim):
        raise DigitsvError(f"means shape {means.shape} does not match posteriors/features")
    n = gammas.sum(axis=0)
    f = gammas.T @ np.asarray(feats.frames, dtype=np.float64) - n[:, None] * means
    return SuffStats(n, f, background_id)


def pgmm_e_step(pgmm: Pgmm, aligns, feats_list) -> tuple[gmm_mod.EmAccumulator, float]:
    """The EM sums of ``pgmm`` under parallel lists of (T, 33) alignments and features.

    Also returns the objective, the alignment-weighted data log-likelihood of
    ``pgmm``, from the same kernel call per utterance.
    """
    accum = gmm_mod.EmAccumulator(pgmm)
    objective = 0.0
    for a, f in zip(aligns, feats_list, strict=True):
        x = np.asarray(f.frames, dtype=np.float64)  # one utterance widened at a time
        objective += accum.add(*gmm_mod.loglikes_and_posteriors(pgmm, x),
                               a[:, :len(DIGIT_STATES)], x)
    return accum, objective


def pgmm_objective(pgmm: Pgmm, aligns, feats_list) -> float:
    """``pgmm_e_step``'s objective alone, from ``gmm.log_likelihoods``: no EM sums."""
    objective = 0.0
    for a, f in zip(aligns, feats_list, strict=True):
        objective += float(np.sum(a[:, :len(DIGIT_STATES)]
                                  * gmm_mod.log_likelihoods(pgmm, f.frames)))
    return objective


def pgmm_m_step(pgmm: Pgmm, accum: gmm_mod.EmAccumulator) -> Pgmm:
    """``EmAccumulator.update`` of all state GMMs, flooring variances at
    ``gmm.VARIANCE_FLOOR`` times the accumulated data's; states with ~zero total
    occupancy are reported via EmptyStateWarning.
    """
    total_n = max(accum.n.sum(), _EMPTY_COUNT)
    global_mean = accum.sx.sum(axis=(0, 1)) / total_n
    global_var = accum.sxx.sum(axis=(0, 1)) / total_n - global_mean ** 2
    floor = np.maximum(gmm_mod.VARIANCE_FLOOR * np.maximum(global_var, 0.0), 1e-10)
    empty = accum.n.sum(axis=1) < _EMPTY_COUNT
    if empty.any():
        warnings.warn(f"states {np.flatnonzero(empty).tolist()} received no occupancy; "
                      "left unchanged", EmptyStateWarning)
    return Pgmm(*accum.update(pgmm, floor))


def init_pgmm(alignments, feats_list, n_components: int = 16,
              em_iterations: int = 10) -> Pgmm:
    """Initialize state GMMs from hard (argmax) frame assignments.

    Every digit state must receive at least ``n_components`` frames,
    otherwise StarvedState identifies the first starved one; frames that do
    not vary at all (one frame, say) raise DegenerateData naming the state.
    Each state's trained mixture is written into its row of the stacked model.
    """
    hard = [align.argmax(axis=1) for align in alignments]
    cfg = gmm_mod.GmmTrainConfig(target_components=n_components, em_iterations=em_iterations)
    # without features state 0 starves below
    shape = (len(DIGIT_STATES), n_components, feats_list[0].dim if feats_list else 1)
    weights, means, variances = np.empty(shape[:2]), np.empty(shape), np.empty(shape)
    for s in DIGIT_STATES:
        # this state's frames only, gathered in corpus order
        parts = [f.frames[h == s] for f, h in zip(feats_list, hard, strict=True)]
        frames = np.concatenate(parts, axis=0) if parts else np.empty((0, 1))
        if frames.shape[0] < n_components:
            raise StarvedState(s, f"state {s} got {frames.shape[0]} frames, "
                                  f"needs >= {n_components}")
        try:
            gmm = gmm_mod.train_em(frames, cfg)
        except DegenerateData:
            raise DegenerateData(f"state {s} got {frames.shape[0]} frames with zero "
                                 "variance") from None
        weights[s], means[s], variances[s] = gmm.weights, gmm.means, gmm.variances
    return Pgmm(weights, means, variances)


def train_pgmm(aligns, feats_list, n_components: int = 16, em_iterations: int = 4) -> Pgmm:
    """Phonetic GMMs under fixed alignments: init_pgmm, then EM steps.

    The returned model's ``training_log`` holds the objective after each step,
    which is nondecreasing.  It is the next E-step's, and ``pgmm_objective``
    scores the final model: ``em_iterations + 1`` passes, none without steps.
    """
    pgmm = init_pgmm(aligns, feats_list, n_components=n_components)
    log = []
    if em_iterations:
        accum, _ = pgmm_e_step(pgmm, aligns, feats_list)
        for step in range(1, em_iterations + 1):
            pgmm = pgmm_m_step(pgmm, accum)
            del accum  # before the next E-step fills its own
            if step < em_iterations:
                accum, objective = pgmm_e_step(pgmm, aligns, feats_list)
            else:  # nothing reads the last step's sums
                objective = pgmm_objective(pgmm, aligns, feats_list)
            log.append(objective)
    pgmm.training_log = log
    return pgmm
