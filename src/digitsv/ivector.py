"""Total-variability subspace, i-vector extraction, and LDA/PLDA scoring.

The subspace matrix maps a low-rank utterance factor to mean offsets of the
background mixtures; extraction solves the Gaussian posterior-mean system
(I + T' S^-1 N T) w = T' S^-1 F.  Scoring projects i-vectors with LDA,
length-normalizes, and applies a two-covariance PLDA likelihood ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    BadLdaDim,
    EmptyEnrollment,
    InconsistentBackground,
    InsufficientSpeakers,
    RankTooLarge,
    ShapeMismatch,
    ZeroVector,
)
from .pgmm import Background, SuffStats


@dataclass
class IVector:
    vector: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1 or not np.all(np.isfinite(self.vector)):
            raise ValueError("i-vector must be a finite 1-D vector")


@dataclass
class TvModel:
    matrix: np.ndarray          # (M*D, R), mixture-major rows
    background: Background
    training_log: list | None = field(default=None, repr=False, compare=False)

    @property
    def rank(self):
        return self.matrix.shape[1]


def _flat_stats(stats: SuffStats, background: Background):
    if stats.f.shape != background.means.shape:
        raise ShapeMismatch("statistics do not match the background layout")
    n_flat = np.repeat(stats.n, background.dim)
    return n_flat, stats.f.reshape(-1)


def _check_background(stats_list, background: Background):
    for stats in stats_list:
        if stats.f.shape != background.means.shape:
            raise InconsistentBackground("statistics shape does not match the background")
        if (stats.background_id and background.model_id
                and stats.background_id != background.model_id):
            raise InconsistentBackground(
                f"statistics anchored to {stats.background_id!r}, "
                f"not {background.model_id!r}"
            )


def _posterior(matrix, inv_var_flat, n_flat, f_flat):
    """Posterior precision L, mean w, and the rhs T' S^-1 F."""
    rank = matrix.shape[1]
    weighted = matrix * (n_flat * inv_var_flat)[:, None]
    precision = np.eye(rank) + weighted.T @ matrix
    rhs = matrix.T @ (f_flat * inv_var_flat)
    mean = np.linalg.solve(precision, rhs)
    return precision, mean, rhs


def extract_ivector(stats: SuffStats, tv: TvModel) -> IVector:
    """Posterior mean of the utterance factor; all-zero statistics give 0."""
    n_flat, f_flat = _flat_stats(stats, tv.background)
    inv_var = 1.0 / tv.background.variances.reshape(-1)
    _, mean, _ = _posterior(tv.matrix, inv_var, n_flat, f_flat)
    return IVector(mean)


def train_tv(stats_list, background: Background, rank: int,
             iterations: int = 5, seed: int = 0) -> TvModel:
    """EM estimation of the total-variability matrix.

    The returned model logs the per-iteration evidence term
    0.5 * (w' rhs - logdet L) summed over utterances, which is
    nondecreasing across iterations.
    """
    if len(stats_list) < rank:
        raise RankTooLarge(f"{len(stats_list)} utterances cannot support rank {rank}")
    _check_background(stats_list, background)

    dim = background.dim
    inv_var = 1.0 / background.variances.reshape(-1)
    rng = np.random.default_rng(seed)
    matrix = 0.1 * rng.standard_normal((background.n_mixtures * dim, rank))

    log = []
    for _ in range(iterations):
        acc_a = np.zeros((background.n_mixtures, rank, rank))
        acc_c = np.zeros_like(matrix)
        aux = 0.0
        for stats in stats_list:
            n_flat, f_flat = _flat_stats(stats, background)
            precision, mean, rhs = _posterior(matrix, inv_var, n_flat, f_flat)
            sign, logdet = np.linalg.slogdet(precision)
            aux += 0.5 * (mean @ rhs - logdet)
            second = np.linalg.inv(precision) + np.outer(mean, mean)
            acc_c += np.outer(f_flat, mean)
            n_per_mix = n_flat[::dim]
            acc_a += n_per_mix[:, None, None] * second
        log.append(aux)
        for m in range(background.n_mixtures):
            rows = slice(m * dim, (m + 1) * dim)
            a = acc_a[m]
            if np.trace(a) < 1e-12:
                continue
            matrix[rows] = np.linalg.solve(a, acc_c[rows].T).T
    tv = TvModel(matrix, background)
    tv.training_log = log
    return tv


def length_normalize(iv: IVector) -> IVector:
    norm = float(np.linalg.norm(iv.vector))
    if norm <= 0.0:
        raise ZeroVector("cannot length-normalize the zero vector")
    return IVector(iv.vector / norm, normalized=True)


@dataclass
class PldaBackend:
    lda: np.ndarray            # (R, R') projection
    mean: np.ndarray           # (R',) global mean after projection+normalization
    between: np.ndarray        # (R', R')
    within: np.ndarray         # (R', R')
    training_log: list | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self):
        return self.lda.shape[1]

    def prepare(self, iv: IVector) -> IVector:
        """LDA-project and length-normalize a raw i-vector."""
        if iv.vector.shape[0] != self.lda.shape[0]:
            raise ShapeMismatch("i-vector rank does not match the LDA projection")
        return length_normalize(IVector(iv.vector @ self.lda))


def _lda_projection(x, labels, lda_dim):
    classes = sorted(set(labels))
    dim = x.shape[1]
    overall = x.mean(axis=0)
    sw = np.zeros((dim, dim))
    sb = np.zeros((dim, dim))
    for c in classes:
        xc = x[[l == c for l in labels]]
        mc = xc.mean(axis=0)
        dev = xc - mc
        sw += dev.T @ dev
        dm = (mc - overall)[:, None]
        sb += xc.shape[0] * (dm @ dm.T)
    sw /= x.shape[0]
    sb /= x.shape[0]
    ridge = 1e-8 * np.trace(sw) / dim + 1e-12
    vals, vecs = scipy.linalg.eigh(sb, sw + ridge * np.eye(dim))
    order = np.argsort(vals)[::-1][:lda_dim]
    proj = vecs[:, order]
    # deterministic sign: largest-magnitude entry positive
    for k in range(proj.shape[1]):
        j = np.argmax(np.abs(proj[:, k]))
        if proj[j, k] < 0:
            proj[:, k] = -proj[:, k]
    return proj


def _gaussian_logpdf(x, cov):
    sign, logdet = np.linalg.slogdet(cov)
    solved = np.linalg.solve(cov, x)
    return -0.5 * (len(x) * np.log(2.0 * np.pi) + logdet + x @ solved)


def plda_log_likelihood(mean, between, within, vectors, labels) -> float:
    """Exact marginal log-likelihood of labeled vectors under the model."""
    total = 0.0
    d = len(mean)
    for c in sorted(set(labels)):
        xc = vectors[[l == c for l in labels]] - mean
        n = xc.shape[0]
        cov = np.kron(np.eye(n), within) + np.kron(np.ones((n, n)), between)
        total += _gaussian_logpdf(xc.reshape(-1), cov)
    return float(total)


def train_backend(ivectors, labels, lda_dim: int, plda_iterations: int = 10) -> PldaBackend:
    """Fit LDA followed by two-covariance PLDA on projected, normalized vectors."""
    if isinstance(ivectors[0], IVector):
        x = np.stack([iv.vector for iv in ivectors])
    else:
        x = np.asarray(ivectors, dtype=np.float64)
    labels = list(labels)
    if len(labels) != x.shape[0]:
        raise ShapeMismatch("one label per i-vector required")
    classes = sorted(set(labels))
    counts = {c: labels.count(c) for c in classes}
    if len(classes) < 2 or min(counts.values()) < 2:
        raise InsufficientSpeakers("need >= 2 speakers with >= 2 i-vectors each")
    if not 1 <= lda_dim <= min(x.shape[1], len(classes) - 1):
        raise BadLdaDim(
            f"LDA dim {lda_dim} must lie in 1..min(rank={x.shape[1]}, "
            f"speakers-1={len(classes) - 1})"
        )

    proj = _lda_projection(x, labels, lda_dim)
    y = x @ proj
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    if np.any(norms <= 0):
        raise ZeroVector("an i-vector projected to zero")
    y /= norms

    # two-covariance PLDA by EM
    mean = y.mean(axis=0)
    class_means = np.stack([y[[l == c for l in labels]].mean(axis=0) for c in classes])
    between = np.cov(class_means.T, bias=True).reshape(lda_dim, lda_dim)
    within = np.zeros((lda_dim, lda_dim))
    for c in classes:
        yc = y[[l == c for l in labels]]
        dev = yc - yc.mean(axis=0)
        within += dev.T @ dev
    within /= y.shape[0]
    ridge = 1e-6 * np.eye(lda_dim)
    between += ridge
    within += ridge

    log = []
    n_total = y.shape[0]
    for _ in range(plda_iterations):
        log.append(plda_log_likelihood(mean, between, within, y, labels))
        inv_b = np.linalg.inv(between)
        inv_w = np.linalg.inv(within)
        y_hat = {}
        cov_post = {}
        for c in classes:
            n = counts[c]
            precision = inv_b + n * inv_w
            cov_post[c] = np.linalg.inv(precision)
            total_dev = (y[[l == c for l in labels]] - mean).sum(axis=0)
            y_hat[c] = cov_post[c] @ (inv_w @ total_dev)
        mean = (y - np.stack([y_hat[l] for l in labels])).mean(axis=0)
        between = sum(cov_post[c] + np.outer(y_hat[c], y_hat[c]) for c in classes) / len(classes)
        within_new = np.zeros_like(within)
        for c in classes:
            resid = y[[l == c for l in labels]] - mean - y_hat[c]
            within_new += resid.T @ resid + counts[c] * cov_post[c]
        within = within_new / n_total
        between += 1e-12 * np.eye(lda_dim)
        within += 1e-12 * np.eye(lda_dim)
    log.append(plda_log_likelihood(mean, between, within, y, labels))

    backend = PldaBackend(proj, mean, between, within)
    backend.training_log = log
    return backend


def plda_score(backend: PldaBackend, enroll, test: IVector) -> float:
    """Same- vs different-speaker log-likelihood ratio.

    Enrollment vectors are averaged and re-length-normalized, so the score
    is invariant to their order.  All vectors must be prepared (projected
    and length-normalized) beforehand.
    """
    if not enroll:
        raise EmptyEnrollment("no enrollment i-vectors given")
    for iv in [*enroll, test]:
        if iv.vector.shape[0] != backend.dim:
            raise ShapeMismatch("i-vector does not match the backend dimension")
        if not iv.normalized:
            raise ValueError("plda_score expects length-normalized i-vectors")
    avg = np.mean([iv.vector for iv in enroll], axis=0)
    e = length_normalize(IVector(avg)).vector - backend.mean
    t = test.vector - backend.mean

    tot = backend.between + backend.within
    d = backend.dim
    joint = np.block([[tot, backend.between], [backend.between, tot]])
    same = _gaussian_logpdf(np.concatenate([e, t]), joint)
    diff = _gaussian_logpdf(e, tot) + _gaussian_logpdf(t, tot)
    return float(same - diff)
