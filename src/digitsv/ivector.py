"""Total-variability subspace, i-vector extraction, and LDA/PLDA scoring.

The subspace matrix maps a low-rank utterance factor to mean offsets of the
background mixtures; extraction solves the Gaussian posterior-mean system
(I + T' S^-1 N T) w = T' S^-1 F.  The precision is assembled as
I + sum_m n_m B_m from per-mixture blocks B_m = T_m' S_m^-1 T_m, computed once
per TV matrix (Glembek et al., "Simplification and optimization of i-vector
extraction", ICASSP 2011), so no utterance pays for an (M*D x R) product.
Training reads the statistics again on every EM pass instead of holding them.
An i-vector is a 1-D float64 array.  Scoring projects i-vectors with
LDA, length-normalizes, and applies a two-covariance PLDA likelihood ratio,
in closed form for every enrolled speaker at once (``PldaScorer``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DigitsvError
from .pgmm import Background, SuffStats


@dataclass
class TvModel:
    matrix: np.ndarray          # (M*D, R), mixture-major rows
    background: Background
    training_log: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        bg = self.background
        if np.shape(bg.variances) != np.shape(bg.means) or not np.all(bg.variances > 0):
            raise ValueError("background variances must have the means' shape and be positive")
        mixtures, dim = bg.means.shape
        if self.matrix.ndim != 2 or self.matrix.shape[0] != mixtures * dim:
            raise ValueError(f"TV matrix of shape {self.matrix.shape} does not have "
                             f"{mixtures} x {dim} rows")

    @property
    def rank(self):
        return self.matrix.shape[1]

    @cached_property
    def precision_blocks(self):
        """(M, R, R) blocks T_m' S_m^-1 T_m, built on first extraction."""
        return _precision_blocks(self.matrix, 1.0 / self.background.variances,
                                 self.background.n_mixtures)


def _precision_blocks(matrix, inv_var, n_mixtures):
    """B_m = T_m' S_m^-1 T_m of every mixture, as an (M, R, R) array."""
    rank = matrix.shape[1]
    rows = matrix.reshape(n_mixtures, -1, rank)
    weights = inv_var.reshape(n_mixtures, -1, 1)
    blocks = np.empty((n_mixtures, rank, rank))
    for t, w, b in zip(rows, weights, blocks):
        np.matmul(t.T, w * t, out=b)
    return blocks


def _posterior(blocks, counts, rhs):
    """Posterior precision I + sum_m n_m B_m and mean, of one utterance or a stack."""
    precision = np.eye(rhs.shape[-1]) + np.tensordot(counts, blocks, axes=1)
    return precision, np.linalg.solve(precision, rhs[..., None])[..., 0]


def _check_background(stats, background: Background):
    if stats.f.shape != background.means.shape:
        raise DigitsvError("statistics shape does not match the background")
    if (stats.background_id and background.model_id
            and stats.background_id != background.model_id):
        raise DigitsvError(
            f"statistics anchored to {stats.background_id!r}, "
            f"not {background.model_id!r}"
        )


def extract_ivector(stats: SuffStats, tv: TvModel) -> np.ndarray:
    """Posterior mean of the utterance factor; all-zero statistics give 0."""
    _check_background(stats, tv.background)
    rhs = tv.matrix.T @ (stats.f.reshape(-1) * (1.0 / tv.background.variances.reshape(-1)))
    return _posterior(tv.precision_blocks, stats.n, rhs)[1]


# The M-step works in bounded blocks, so no temporary has the TV matrix's size:
# this many TV rows per product or stacked solve, and this many utterances'
# first-order statistics per product (one utterance per product is a rank-1
# update, several times slower per utterance).
ROW_BLOCK = 2048
UTTERANCE_GROUP = 4


def _pass(stats, background: Background, expected: int | None = None):
    """One pass over ``stats()``, each item checked against the background.

    Every pass after the first must yield as many utterances as the first
    (``expected``): a stream that cannot be read again fails here instead of
    training on empty passes.
    """
    count = 0
    for item in stats():
        count += 1
        if expected is not None and count > expected:
            break
        _check_background(item, background)
        yield item
        del item   # the next read must not find this utterance still held
    if expected is not None and count != expected:
        got = f"more than {expected}" if count > expected else count
        raise DigitsvError(
            f"a later pass over the statistics yielded {got} utterances, the first "
            f"{expected}: train_tv needs a callable that returns a fresh iterable of "
            "the same statistics on every call"
        )


def _right_hand_sides(matrix, items, inv_var, counts=None):
    """Each utterance's T'(S^-1 f_u) under ``matrix``, as (U, R); its n_u goes to ``counts``."""
    rhs = []
    for item in items:
        if counts is not None:
            counts.append(item.n)
        rhs.append(matrix.T @ (item.f.reshape(-1) * inv_var))
        del item
    return np.array(rhs).reshape(len(rhs), matrix.shape[1])


def _first_order_groups(items, size, width):
    """The items' flattened first-order statistics, ``size`` utterances per (size, width) block."""
    group = np.empty((size, width))
    filled = 0
    for item in items:
        group[filled] = item.f.reshape(-1)
        del item
        filled += 1
        if filled == size:
            yield group
            filled = 0
    if filled:
        yield group[:filled]


def _add_first_order(matrix, live_rows, items, mean):
    """``matrix += sum_u f_u mean_u'`` on the live rows only, in bounded row blocks.

    ``items`` yields the utterances of ``mean`` in order; a group of them
    enters each row block as one matrix product.
    """
    rows, rank = matrix.shape
    product = np.empty((min(ROW_BLOCK, rows), rank))
    done = 0
    for group in _first_order_groups(items, min(UTTERANCE_GROUP, len(mean)), rows):
        weights = mean[done:done + len(group)]
        done += len(group)
        for a in range(0, rows, ROW_BLOCK):
            b = min(a + ROW_BLOCK, rows)
            np.matmul(group[:, a:b].T, weights, out=product[:b - a])
            np.add(matrix[a:b], product[:b - a], out=matrix[a:b], where=live_rows[a:b])


def _solve_live(acc_a, blocks, live):
    """``blocks[m] = (acc_a[m]^-1 blocks[m]')'`` for every live mixture, in place.

    ``blocks`` is the (M, D, R) view of the TV matrix; mixtures are solved in
    batches of about ``ROW_BLOCK`` rows, each batch one stacked solve.
    """
    mixtures = np.flatnonzero(live)
    batch = max(1, ROW_BLOCK // blocks.shape[1])
    for k in range(0, len(mixtures), batch):
        m = mixtures[k:k + batch]
        blocks[m] = np.linalg.solve(acc_a[m], blocks[m].transpose(0, 2, 1)).transpose(0, 2, 1)


def _em_iteration(matrix, counts, rhs, inv_var, items):
    """One EM update of ``matrix`` in place; returns the evidence term.

    ``rhs`` holds each utterance's T'(S^-1 f_u) under the current matrix, and
    ``items`` yields the same utterances' statistics again for the M-step.
    """
    mixtures, rank = counts.shape[1], matrix.shape[1]
    precision, mean = _posterior(_precision_blocks(matrix, inv_var, mixtures), counts, rhs)
    aux = 0.5 * float(np.sum(np.einsum("ur,ur->u", mean, rhs)
                             - np.linalg.slogdet(precision)[1]))
    second = np.linalg.inv(precision)
    del precision
    second += mean[:, :, None] * mean[:, None, :]
    acc_a = np.tensordot(counts, second, axes=(0, 0))   # (M, R, R)
    del second
    # a mixture no utterance occupies keeps its rows
    live = np.trace(acc_a, axis1=1, axis2=2) >= 1e-12
    blocks = matrix.reshape(mixtures, -1, rank)
    blocks[live] = 0.0
    _add_first_order(matrix, np.repeat(live, blocks.shape[1])[:, None], items, mean)
    _solve_live(acc_a, blocks, live)
    return aux


def train_tv(stats, background: Background, rank: int,
             iterations: int = 5, seed: int = 0) -> TvModel:
    """EM estimation of the total-variability matrix.

    ``stats`` returns a fresh iterable of ``SuffStats`` on each call, and is
    read twice per iteration: once for the E-step's right-hand sides and
    once to accumulate the M-step.  So besides the TV matrix only a few
    utterances' statistics, each utterance's counts and rank x rank arrays
    per utterance and per mixture are held, whatever the corpus size.  The
    E-step is batched over all utterances.  The returned
    model logs the per-iteration evidence term 0.5 * (w' rhs - logdet L)
    summed over utterances, which is nondecreasing across iterations.
    """
    inv_var = 1.0 / background.variances.reshape(-1)
    matrix = np.random.default_rng(seed).standard_normal((background.means.size, rank))
    matrix *= 0.1
    counts, log = [], []
    rhs = _right_hand_sides(matrix, _pass(stats, background), inv_var, counts)
    utterances = len(counts)
    if utterances < rank:
        raise DigitsvError(f"{utterances} utterances cannot support rank {rank}")
    counts = np.array(counts).reshape(utterances, background.n_mixtures)
    for k in range(iterations):
        if k:
            rhs = _right_hand_sides(matrix, _pass(stats, background, utterances), inv_var)
        log.append(_em_iteration(matrix, counts, rhs, inv_var,
                                 _pass(stats, background, utterances)))
    tv = TvModel(matrix, background)
    tv.training_log = log
    return tv


def length_normalize(vector: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if norm <= 0.0:
        raise DigitsvError("cannot length-normalize the zero vector")
    return vector / norm


def _is_covariance(cov, definite: bool) -> bool:
    """Whether ``cov`` is symmetric, up to rounding, and positive definite (or only
    semidefinite, when not ``definite``)."""
    cov = np.asarray(cov, dtype=np.float64)
    scale = np.abs(cov).max()
    if np.abs(cov - cov.T).max() > 1e-9 * scale:
        return False
    smallest = np.linalg.eigvalsh(cov)[0]
    return smallest > 0 if definite else smallest >= -1e-9 * scale


@dataclass
class PldaBackend:
    lda: np.ndarray            # (R, R') projection
    mean: np.ndarray           # (R',) global mean after projection+normalization
    between: np.ndarray        # (R', R')
    within: np.ndarray         # (R', R')
    training_log: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        shapes = [np.shape(getattr(self, k)) for k in ("lda", "mean", "between", "within")]
        dim = shapes[0][1:2]
        if len(shapes[0]) != 2 or shapes[1:] != [dim, dim * 2, dim * 2]:
            raise ValueError(f"lda, mean, between and within are {shapes}, "
                             "not (R, R'), (R',), (R', R') and (R', R')")
        # B may be singular: a zero between-class covariance scores every trial 0
        if not (_is_covariance(self.between, definite=False)
                and _is_covariance(self.within, definite=True)):
            raise ValueError("between must be symmetric positive semidefinite and within "
                             "symmetric positive definite")

    @property
    def dim(self):
        return self.lda.shape[1]

    def prepare(self, vector: np.ndarray) -> np.ndarray:
        """LDA-project and length-normalize a raw i-vector."""
        if vector.shape[0] != self.lda.shape[0]:
            raise DigitsvError("i-vector rank does not match the LDA projection")
        return length_normalize(vector @ self.lda)


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
    # sb v = lambda (sw + ridge) v by the Cholesky reduction LAPACK's dsygvd
    # performs: with sw + ridge = L L', eigenvectors y of L^-1 sb L^-T give
    # v = L^-T y, so that v' (sw + ridge) v = I.
    chol = np.linalg.cholesky(sw + ridge * np.eye(dim))
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, sb).T)
    vals, vecs = np.linalg.eigh(reduced)
    vecs = np.linalg.solve(chol.T, vecs)
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
    """Fit LDA followed by two-covariance PLDA on projected, normalized vectors.

    ``ivectors`` is a (count, rank) array or a sequence of rank-length i-vectors.
    """
    x = np.asarray(ivectors, dtype=np.float64)
    labels = list(labels)
    if len(labels) != x.shape[0]:
        raise DigitsvError("one label per i-vector required")
    classes = sorted(set(labels))
    counts = {c: labels.count(c) for c in classes}
    if len(classes) < 2 or min(counts.values()) < 2:
        raise DigitsvError("need >= 2 speakers with >= 2 i-vectors each")
    if not 1 <= lda_dim <= min(x.shape[1], len(classes) - 1):
        raise DigitsvError(
            f"LDA dim {lda_dim} must lie in 1..min(rank={x.shape[1]}, "
            f"speakers-1={len(classes) - 1})"
        )

    proj = _lda_projection(x, labels, lda_dim)
    y = x @ proj
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    if np.any(norms <= 0):
        raise DigitsvError("an i-vector projected to zero")
    y /= norms
    mean, between, within, log = _two_covariance_em(y, labels, counts, plda_iterations)
    backend = PldaBackend(proj, mean, between, within)
    backend.training_log = log
    return backend


def _two_covariance_em(y, labels, counts, iterations):
    """Two-covariance PLDA by EM on projected, normalized vectors, ``counts``
    vectors per class: the mean, the between- and within-class covariances and
    the log-likelihood before each iteration and after the last."""
    classes = sorted(counts)
    lda_dim = y.shape[1]
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
    for _ in range(iterations):
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
    return mean, between, within, log


class PldaScorer:
    """Enrolled speakers of one TV model and PLDA backend, scored in closed form.

    The two-covariance LLR of centred enrollment and test vectors e and t,
    log N([e; t]; 0, J) - log N(e; 0, T) - log N(t; 0, T), is a quadratic form
    e'Qe + t'Qt + 2 e'Pt + c, with Q, P and c fixed by the backend (Ioffe,
    ECCV 2006; Garcia-Romero & Espy-Wilson, Interspeech 2011): for T = B + W
    and the joint covariance J = [[T, B], [B, T]], Q = (T^-1 - [J^-1]_11) / 2,
    P = -[J^-1]_12 / 2 and c = log|T| - log|J| / 2.
    Each speaker's averaged, re-length-normalized enrollment vector is
    kept centred as one row of a (speakers x d) matrix, so one test i-vector
    scores every speaker with one matrix-vector product.  ``enrollments`` maps
    each speaker to an iterable of its utterances' statistics.
    """

    def __init__(self, tv: TvModel, backend: PldaBackend, enrollments: dict):
        self.tv = tv
        self.backend = backend
        self.index = {spk: k for k, spk in enumerate(enrollments)}
        rows = []
        for spk, stats_list in enrollments.items():
            vectors = []
            for stats in stats_list:
                vectors.append(self.ivector(stats))
                del stats  # not held while the next utterance is aligned
            if not vectors:
                raise DigitsvError(f"speaker {spk!r} has no enrollment statistics")
            rows.append(length_normalize(np.mean(vectors, axis=0)) - backend.mean)
        self.enrolled = np.array(rows).reshape(len(rows), backend.dim)
        d = backend.dim
        tot = backend.between + backend.within
        joint = np.block([[tot, backend.between], [backend.between, tot]])
        joint_inv = np.linalg.inv(joint)
        self.quad = 0.5 * (np.linalg.inv(tot) - joint_inv[:d, :d])
        self.cross = -0.5 * joint_inv[:d, d:]
        const = np.linalg.slogdet(tot)[1] - 0.5 * np.linalg.slogdet(joint)[1]
        self.enrolled_terms = np.einsum("sd,de,se->s", self.enrolled, self.quad,
                                        self.enrolled) + const

    def ivector(self, stats: SuffStats) -> np.ndarray:
        """One utterance's i-vector, projected and length-normalized."""
        return self.backend.prepare(extract_ivector(stats, self.tv))

    def scores(self, stats: SuffStats, retained: int) -> np.ndarray:
        """LLR of every speaker, in ``index`` order, given one key's statistics.

        ``retained`` is unused: it keeps the signature of ``LinearLlr.scores``.
        """
        t = self.ivector(stats) - self.backend.mean
        return self.enrolled_terms + t @ self.quad @ t + 2.0 * (self.enrolled @ (self.cross @ t))
