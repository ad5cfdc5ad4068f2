"""Diagonal-covariance Gaussian mixture models.

EM training with binary mixture splitting, log-domain likelihoods and
component posteriors.  ``StateMixtures`` stacks one mixture per state into
one (S, C) / (S, C, D) parameter block, and the kernels take either: a
stacked model is scored in one call.  Every mixture, one or stacked, is
re-estimated by one ``EmAccumulator``.
Models are treated as immutable once trained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DegenerateData, DigitsvError

_LOG_2PI = np.log(2.0 * np.pi)
_EMPTY_COUNT = 1e-8
# EM scores and accumulates this many frames at a time, so its per-frame
# temporaries are two (EM_BLOCK x components) float64 arrays (16 MiB at 512
# components) however many frames a mixture is trained on
EM_BLOCK = 2048
VARIANCE_FLOOR = 1e-3  # relative to the global per-dimension variance


@dataclass
class DiagGmm:
    """One C-component diagonal GMM: (C,) weights, (C, D) means and variances.

    The checks are shape-generic: the component axis is the last of the
    weights and the second to last of the means and variances, behind
    ``STATE_AXES`` leading state axes, and every mixture's weights must be
    nonnegative and sum to 1.
    """

    weights: np.ndarray    # (C,)
    means: np.ndarray      # (C, D)
    variances: np.ndarray  # (C, D)
    training_log: list | None = field(default=None, repr=False, compare=False, kw_only=True)
    STATE_AXES: ClassVar[int] = 0

    def __post_init__(self):
        # C-ordered, so that any leading rows reshape to (rows * C, D) views
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.means = np.ascontiguousarray(self.means, dtype=np.float64)
        self.variances = np.ascontiguousarray(self.variances, dtype=np.float64)
        if self.means.ndim != self.STATE_AXES + 2 or self.variances.shape != self.means.shape \
                or self.weights.shape != self.means.shape[:-1]:
            raise DigitsvError(f"inconsistent mixture parameter shapes {self.weights.shape}, "
                               f"{self.means.shape}, {self.variances.shape}")
        if np.any(self.weights < 0):
            raise ValueError("mixture weights must be nonnegative")
        sums = self.weights.sum(axis=-1)
        off = np.abs(sums - 1.0) > 1e-9
        if np.any(off):
            raise ValueError(f"mixture weights sum to {sums[off].flat[0]!r}, not 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be strictly positive")

    @property
    def n_components(self):
        return self.weights.shape[-1]

    @property
    def dim(self):
        return self.means.shape[-1]


@dataclass
class StateMixtures(DiagGmm):
    """One C-component diagonal GMM per state, stacked into one parameter block.

    (S, C) weights and (S, C, D) means and variances; every kernel below
    scores all S states at once.
    """

    STATE_AXES: ClassVar[int] = 1

    @property
    def n_mixtures(self):
        return self.weights.size


@dataclass
class GmmTrainConfig:
    target_components: int = 512
    em_iterations: int = 10

    def __post_init__(self):
        c = self.target_components
        if c < 1 or (c & (c - 1)) != 0:
            raise ValueError("target_components must be a power of 2 (mixtures grow by splitting)")


def _check_frames(model: DiagGmm, frames: np.ndarray) -> np.ndarray:
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim == 1:
        frames = frames[None, :]
    if frames.shape[1] != model.dim:
        raise DigitsvError(f"frame dim {frames.shape[1]} vs model dim {model.dim}")
    return frames


def log_weighted_densities(model: DiagGmm, frames: np.ndarray) -> np.ndarray:
    """log w_c + log N(x_t; mu_c, var_c): (T, C) for a DiagGmm, (T, S, C) for StateMixtures.

    Every state's components are scored by one pair of (T, D) @ (D, S * C)
    products over the reshaped parameters, the form of Kaldi's
    ``DiagGmm::LogLikelihoods``.
    """
    frames = _check_frames(model, frames)
    means = model.means.reshape(-1, model.dim)
    variances = model.variances.reshape(-1, model.dim)
    inv_var = 1.0 / variances
    const = (
        np.log(np.maximum(model.weights.reshape(-1), 1e-300))
        - 0.5 * (model.dim * _LOG_2PI + np.sum(np.log(variances), axis=1))
        - 0.5 * np.sum(means ** 2 * inv_var, axis=1)
    )
    # one product is added into the other, so at most two (T, S * C) arrays are live
    quad = frames @ (means * inv_var).T
    quad += -0.5 * (frames ** 2) @ inv_var.T
    quad += const
    return quad.reshape(frames.shape[0], *model.weights.shape)


def log_likelihoods(model: DiagGmm, frames: np.ndarray) -> np.ndarray:
    """Per-frame mixture log-likelihoods: (T,) for a DiagGmm, (T, S) for StateMixtures."""
    lw = log_weighted_densities(model, frames)
    m = lw.max(axis=-1, keepdims=True)
    lw -= m
    return (m + np.log(np.sum(np.exp(lw, out=lw), axis=-1, keepdims=True)))[..., 0]


def loglikes_and_posteriors(model: DiagGmm, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log_likelihoods`` and the responsibilities, (T, C) or (T, S, C), from one scoring."""
    lw = log_weighted_densities(model, frames)
    m = lw.max(axis=-1, keepdims=True)
    lw -= m
    p = np.exp(lw, out=lw)
    total = p.sum(axis=-1, keepdims=True)
    p /= total
    return (m + np.log(total))[..., 0], p


def split_components(model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Doubled mixtures' (weights, means, variances), each mean moved +-0.2 stddev per dim.

    ``model`` is a ``DiagGmm`` or ``StateMixtures``: the component axis is
    the last of the weights and the second to last of the means and
    variances, so every state of a stacked model splits at once.
    """
    offset = 0.2 * np.sqrt(model.variances)
    *lead, c, d = model.means.shape
    means = np.empty((*lead, 2 * c, d))
    means[..., 0::2, :] = model.means - offset
    means[..., 1::2, :] = model.means + offset
    variances = np.repeat(model.variances, 2, axis=-2)
    weights = np.repeat(model.weights, 2, axis=-1) / 2.0
    return weights, means, variances


def column_mean_var(chunks) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and variance of the rows of ``chunks()``, stacked, without stacking them.

    ``chunks`` returns a fresh iterable of (rows, D) arrays on each call (it
    is read twice), and each chunk is widened to float64 in turn.  With two
    or more columns the results equal ``x.mean(axis=0)`` and
    ``x.var(axis=0)`` of the stacked float64 ``x`` bit for bit: numpy sums
    a C-ordered matrix over axis 0 one row after another, and each chunk
    continues that sequence from the running sum.  A single column numpy
    sums pairwise, so there the results are correct but may differ in the
    last bits.
    """
    def column_sums(arrays):
        total, rows = None, 0
        for x in arrays:
            total = np.add.reduce(x if total is None else np.vstack([total[None], x]), axis=0)
            rows += x.shape[0]
        return total, rows

    total, rows = column_sums(np.asarray(x, dtype=np.float64) for x in chunks())
    mean = total / rows
    squares, _ = column_sums(np.square(x - mean) for x in chunks())
    return mean, squares / rows


def _row_blocks(n: int) -> list:
    """Slices of at most ``EM_BLOCK`` rows covering ``range(n)``, in order."""
    return [slice(a, min(a + EM_BLOCK, n)) for a in range(0, n, EM_BLOCK)]


class EmAccumulator:
    """Counts and first- and second-order sums of a ``DiagGmm`` or ``StateMixtures``.

    (C,) counts and (C, D) sums for one mixture, (S, C) and (S, C, D) for a
    stacked model.  As in HTK's HERest and Kaldi's ``AccumDiagGmm``, ``add``
    fills them one utterance or row block at a time, then ``update``
    re-estimates every mixture at once.
    """

    def __init__(self, model: DiagGmm):
        self.n = np.zeros(model.weights.shape)
        self.sx = np.zeros(model.means.shape)
        self.sxx = np.zeros(model.means.shape)

    def add(self, loglikes: np.ndarray, posteriors: np.ndarray, occupancy: np.ndarray | None,
            frames: np.ndarray) -> float:
        """Add one utterance or block; returns its occupancy-weighted log-likelihood.

        ``loglikes`` and ``posteriors`` are ``loglikes_and_posteriors`` of the
        model on ``frames``, and ``occupancy`` the (T, S) state mass of a
        stacked model, which weights the posteriors in place; ``None`` means 1.
        The sums are float64 whatever the frames' dtype.
        """
        if occupancy is not None:
            posteriors *= occupancy[..., None]
            loglikes = occupancy * loglikes
        frames = np.asarray(frames, dtype=np.float64)
        resp = posteriors.reshape(frames.shape[0], -1)
        self.n += resp.sum(axis=0).reshape(self.n.shape)
        self.sx += (resp.T @ frames).reshape(self.sx.shape)
        self.sxx += (resp.T @ (frames ** 2)).reshape(self.sxx.shape)
        return float(np.sum(loglikes))

    def update(self, model: DiagGmm, floor: np.ndarray):
        """(weights, means, variances) from the sums, variances floored at ``floor``.

        Each mixture is one row of (-1, C) counts.  A mixture with mass below
        ``_EMPTY_COUNT`` keeps its row; a component below it keeps its mean and
        variance.  As in Kaldi's ``MleDiagGmmUpdate``, nothing is re-seeded.
        """
        c, d = model.n_components, model.dim
        n, sx, sxx = self.n.reshape(-1, c), self.sx.reshape(-1, c, d), self.sxx.reshape(-1, c, d)
        state_n = n.sum(axis=1)
        full = state_n >= _EMPTY_COUNT
        # every component of an empty mixture is below the count too
        live = n >= _EMPTY_COUNT
        counts = n[live][:, None]
        weights = model.weights.reshape(-1, c).copy()
        means = model.means.reshape(-1, c, d).copy()
        variances = model.variances.reshape(-1, c, d).copy()
        weights[full] = n[full] / state_n[full, None]
        means[live] = sx[live] / counts
        variances[live] = np.maximum(sxx[live] / counts - means[live] ** 2, floor)
        return (weights.reshape(model.weights.shape), means.reshape(model.means.shape),
                variances.reshape(model.means.shape))


def train_em(data: np.ndarray, cfg: GmmTrainConfig) -> DiagGmm:
    """Fit a diagonal GMM by closed-form start, then split -> EM to the target size.

    No temporary grows with ``data``: the global statistics, every EM
    iteration and each level's log-likelihood work over row blocks of at most
    ``EM_BLOCK`` frames, each widened to float64 on its own, so float32
    ``data`` is never held at twice its size.  Each iteration adds every
    block into one ``EmAccumulator`` and re-estimates with its ``update``,
    the M-step of the stacked models too.  The global mean and variance equal
    ``data.mean(axis=0)`` and ``data.var(axis=0)`` bit for bit with two or
    more columns (see ``column_mean_var``).

    The returned model carries a ``training_log`` of
    ``(n_components, [log-likelihood per EM iteration])`` entries; within one
    size level the log-likelihood is nondecreasing.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise DigitsvError("training data must be an N x D matrix")
    n = data.shape[0]
    if n < cfg.target_components:
        raise DigitsvError(f"{n} samples cannot support {cfg.target_components} components")

    def widened():
        return (np.asarray(data[rows], dtype=np.float64) for rows in _row_blocks(n))

    mean, global_var = column_mean_var(widened)
    if np.max(global_var) <= 0.0:
        raise DegenerateData("training data has zero variance")
    floor = np.maximum(VARIANCE_FLOOR * global_var, 1e-10)

    log: list = []
    gmm = DiagGmm(np.array([1.0]), mean[None, :], np.maximum(global_var, floor)[None, :])
    while gmm.n_components < cfg.target_components:
        gmm = DiagGmm(*split_components(gmm))
        lls = []
        for _ in range(cfg.em_iterations):
            accum, ll = EmAccumulator(gmm), 0.0
            for x in widened():
                ll += accum.add(*loglikes_and_posteriors(gmm, x), None, x)
            gmm = DiagGmm(*accum.update(gmm, floor))
            lls.append(ll)
        lls.append(sum(float(log_likelihoods(gmm, x).sum()) for x in widened()))
        log.append((gmm.n_components, lls))
    gmm.training_log = log
    return gmm
