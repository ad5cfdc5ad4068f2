"""Phonetic GMMs and normalized Baum-Welch statistics.

A Pgmm holds one diagonal GMM per digit state (silence excluded).  Any
alignment source supplies per-frame state posteriors; multiplying by the
within-state component posterior gives joint mixture occupancies, from
which zeroth- and first-order statistics are accumulated for the MAP and
i-vector backends, the only two orders either reads.  Statistics merge by
adding one utterance's into an accumulator in place.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import gmm as gmm_mod
from .errors import EmptyStateWarning, ShapeMismatch, StarvedState
from .features import FeatureSequence
from .gmm import DiagGmm
from .hmm import DIGIT_STATES, N_STATES, HmmSet

_EMPTY_COUNT = 1e-8
PRUNE_DEFAULT = 1e-6


@dataclass
class Pgmm:
    """One GMM per digit state; 30 states x n_components mixtures."""

    gmms: list              # 30 DiagGmm, indexed by digit state
    state_ids: tuple = DIGIT_STATES
    training_log: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.gmms) != len(self.state_ids):
            raise ShapeMismatch("one GMM per phonetic state required")
        if len(set(self.state_ids)) != len(self.state_ids) or \
                not set(self.state_ids) <= set(DIGIT_STATES):
            raise ValueError(f"state_ids must be distinct digit states, got {self.state_ids}")

    @property
    def n_components(self):
        return self.gmms[0].n_components

    @property
    def dim(self):
        return self.gmms[0].dim

    @property
    def n_mixtures(self):
        return len(self.gmms) * self.n_components


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
            raise ShapeMismatch("inconsistent statistics shapes")

    def add(self, other: "SuffStats") -> "SuffStats":
        """Add ``other`` into these statistics in place, and return them."""
        if self.f.shape != other.f.shape:
            raise ShapeMismatch("cannot merge statistics of different shapes")
        if (self.background_id and other.background_id
                and self.background_id != other.background_id):
            raise ShapeMismatch("cannot merge statistics from different backgrounds")
        self.n += other.n
        self.f += other.f
        self.background_id = self.background_id or other.background_id
        return self


@dataclass
class Background:
    """Flattened mixture view of a UBM, HMM state set, or phonetic GMM."""

    means: np.ndarray       # (M, D)
    variances: np.ndarray   # (M, D)
    state_ids: tuple | None
    n_components: int
    model_id: str = ""

    @classmethod
    def from_ubm(cls, ubm: DiagGmm, model_id: str = "ubm"):
        return cls(ubm.means.copy(), ubm.variances.copy(), None, ubm.n_components, model_id)

    @classmethod
    def from_pgmm(cls, pgmm: Pgmm, model_id: str = "pgmm"):
        means = np.concatenate([g.means for g in pgmm.gmms], axis=0)
        variances = np.concatenate([g.variances for g in pgmm.gmms], axis=0)
        return cls(means, variances, pgmm.state_ids, pgmm.n_components, model_id)

    @classmethod
    def from_hmm_set(cls, hmms: HmmSet, model_id: str = "hmm"):
        means = np.concatenate([hmms.gmms[s].means for s in DIGIT_STATES], axis=0)
        variances = np.concatenate([hmms.gmms[s].variances for s in DIGIT_STATES], axis=0)
        return cls(means, variances, DIGIT_STATES, hmms.n_components, model_id)

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


def _model_states_gmms(model):
    if isinstance(model, Pgmm):
        return model.state_ids, model.gmms  # silence is already excluded
    if isinstance(model, HmmSet):
        return DIGIT_STATES, [model.gmms[s] for s in DIGIT_STATES]
    raise ShapeMismatch(f"unsupported model type {type(model).__name__}")


def mixture_posteriors(model, align: np.ndarray, feats: FeatureSequence,
                       prune: float = PRUNE_DEFAULT) -> np.ndarray:
    """Joint (state, component) posteriors: state mass times within-state posterior.

    ``align`` is the (T, 33) state alignment of the T feature frames.
    Returns a (T, M) array whose columns group each digit state's components
    in state order.  Only digit states contribute, for a Pgmm and an HmmSet
    alike: the silence-state mass is discarded (never renormalized), so a
    row carries total mass <= 1.  Entries below ``prune`` are zeroed for
    sparsity.
    """
    states, gmms = _model_states_gmms(model)
    if align.shape != (feats.n_frames, N_STATES):
        raise ShapeMismatch(f"alignment is {align.shape}, features need "
                            f"({feats.n_frames}, {N_STATES})")
    if gmms[0].dim != feats.dim:
        raise ShapeMismatch(f"model dim {gmms[0].dim} vs feature dim {feats.dim}")

    n_comp = gmms[0].n_components
    t = feats.n_frames
    gammas = np.empty((t, len(states) * n_comp))
    for k, (s, g) in enumerate(zip(states, gmms)):
        state_mass = align[:, s:s + 1]
        gammas[:, k * n_comp:(k + 1) * n_comp] = (
            state_mass * gmm_mod.component_posterior_matrix(g, feats.frames)
        )
    if prune > 0:
        gammas[gammas < prune] = 0.0
    return gammas


def ubm_mixture_posteriors(ubm: DiagGmm, feats: FeatureSequence,
                           prune: float = PRUNE_DEFAULT) -> np.ndarray:
    """(T, M) unsupervised component posteriors under a single background GMM."""
    gammas = gmm_mod.component_posterior_matrix(ubm, feats.frames)
    if prune > 0:
        gammas = np.where(gammas < prune, 0.0, gammas)
    return gammas


def accumulate_stats(gammas: np.ndarray, feats: FeatureSequence,
                     means: np.ndarray, background_id: str | None = None) -> SuffStats:
    """Normalized Baum-Welch statistics of (T, M) mixture posteriors around the means."""
    means = np.asarray(means, dtype=np.float64)
    if gammas.ndim != 2 or gammas.shape[0] != feats.n_frames:
        raise ShapeMismatch("posteriors must be one row per feature frame")
    if means.shape != (gammas.shape[1], feats.dim):
        raise ShapeMismatch(f"means shape {means.shape} does not match posteriors/features")
    n = gammas.sum(axis=0)
    f = gammas.T @ feats.frames - n[:, None] * means
    return SuffStats(n, f, background_id)


class PgmmEmAccumulator:
    """Raw EM accumulator for Pgmm updates."""

    def __init__(self, pgmm: Pgmm):
        self.n = np.zeros((len(pgmm.state_ids), pgmm.n_components))
        self.sx = np.zeros((len(pgmm.state_ids), pgmm.n_components, pgmm.dim))
        self.sxx = np.zeros_like(self.sx)
        self._shape_key = (len(pgmm.state_ids), pgmm.n_components, pgmm.dim)

    def add(self, pgmm: Pgmm, align: np.ndarray, feats: FeatureSequence):
        if (len(pgmm.state_ids), pgmm.n_components, pgmm.dim) != self._shape_key:
            raise ShapeMismatch("accumulator does not match this model")
        x = feats.frames
        for k, (state, g) in enumerate(zip(pgmm.state_ids, pgmm.gmms)):
            mass = align[:, state]
            if not mass.any():
                continue
            resp = gmm_mod.component_posterior_matrix(g, x) * mass[:, None]
            self.n[k] += resp.sum(axis=0)
            self.sx[k] += resp.T @ x
            self.sxx[k] += resp.T @ (x ** 2)
        return self


def pgmm_em_step(pgmm: Pgmm, aligns=None, feats=None,
                 accum: PgmmEmAccumulator | None = None,
                 variance_floor: float = 1e-3) -> Pgmm:
    """One EM update of all state GMMs under fixed alignments.

    ``aligns`` and ``feats`` are parallel lists of (T, 33) alignments and
    their features, added to ``accum`` (a new accumulator by default).
    Per state the new weights normalize the component occupancies, means are
    occupancy-weighted sample means and variances the matching (floored)
    spreads.  States with ~zero total occupancy are left unchanged and
    reported via EmptyStateWarning.
    """
    if accum is None:
        accum = PgmmEmAccumulator(pgmm)
    if aligns is not None:
        for a, f in zip(aligns, feats, strict=True):
            accum.add(pgmm, a, f)

    global_second = accum.sxx.sum(axis=(0, 1))
    global_first = accum.sx.sum(axis=(0, 1))
    total_n = accum.n.sum()
    global_mean = global_first / max(total_n, _EMPTY_COUNT)
    global_var = global_second / max(total_n, _EMPTY_COUNT) - global_mean ** 2
    floor = np.maximum(variance_floor * np.maximum(global_var, 0.0), 1e-10)

    new_gmms = []
    empty_states = []
    for k, (state, g) in enumerate(zip(pgmm.state_ids, pgmm.gmms)):
        state_n = accum.n[k].sum()
        if state_n < _EMPTY_COUNT:
            empty_states.append(state)
            new_gmms.append(g)
            continue
        weights = accum.n[k] / state_n
        counts = accum.n[k]
        live = counts >= _EMPTY_COUNT
        means = g.means.copy()
        variances = g.variances.copy()
        means[live] = accum.sx[k][live] / counts[live, None]
        variances[live] = np.maximum(
            accum.sxx[k][live] / counts[live, None] - means[live] ** 2, floor
        )
        new_gmms.append(DiagGmm(weights, means, variances))
    if empty_states:
        warnings.warn(
            f"states {empty_states} received no occupancy; left unchanged",
            EmptyStateWarning,
        )
    return Pgmm(new_gmms, pgmm.state_ids)


def pgmm_objective(pgmm: Pgmm, aligns, feats) -> float:
    """Alignment-weighted data log-likelihood; nondecreasing under pgmm_em_step."""
    total = 0.0
    for a, f in zip(aligns, feats, strict=True):
        for state, g in zip(pgmm.state_ids, pgmm.gmms):
            mass = a[:, state]
            if mass.any():
                total += float(mass @ gmm_mod.log_likelihoods(g, f.frames))
    return total


def init_pgmm(alignments, feats_list, n_components: int = 16,
              em_iterations: int = 10, variance_floor: float = 1e-3,
              seed: int = 0) -> Pgmm:
    """Initialize state GMMs from hard (argmax) frame assignments.

    Every digit state must receive at least ``n_components`` frames,
    otherwise StarvedState identifies the first starved one.
    """
    hard = [align.argmax(axis=1) for align in alignments]

    gmms = []
    for s in DIGIT_STATES:
        # this state's frames only, gathered in corpus order
        parts = [f.frames[h == s] for f, h in zip(feats_list, hard, strict=True)]
        frames = np.concatenate(parts, axis=0) if parts else np.empty((0, 1))
        if frames.shape[0] < n_components:
            raise StarvedState(s, f"state {s} got {frames.shape[0]} frames, "
                                  f"needs >= {n_components}")
        cfg = gmm_mod.GmmTrainConfig(
            target_components=n_components,
            em_iterations=em_iterations,
            variance_floor=variance_floor,
            seed=seed,
        )
        gmms.append(gmm_mod.train_em(frames, cfg))
    return Pgmm(gmms)


def train_pgmm(aligns, feats_list, n_components: int = 16, em_iterations: int = 4,
               seed: int = 0) -> Pgmm:
    """Phonetic GMMs under fixed alignments: init_pgmm, then EM steps.

    The returned model's ``training_log`` holds pgmm_objective after each
    EM step, which is nondecreasing.
    """
    pgmm = init_pgmm(aligns, feats_list, n_components=n_components, seed=seed)
    log = []
    for _ in range(em_iterations):
        pgmm = pgmm_em_step(pgmm, aligns, feats_list)
        log.append(pgmm_objective(pgmm, aligns, feats_list))
    pgmm.training_log = log
    return pgmm
