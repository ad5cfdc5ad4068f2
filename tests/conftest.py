import itertools

import numpy as np
import pytest

from digitsv import ivector, neural_aligner
from digitsv.errors import DigitsvError
from digitsv.features import FeatureKind, FeatureSequence
from digitsv.gmm import DiagGmm
from digitsv.hmm import N_STATES, HmmSet


def make_hmm_set(dim=2, n_components=1, self_loop=0.6, rng=None, spread=6.0):
    """A full 33-state set of 60-dim GMMs whose means tile a (C, dim) pattern.

    Pairs with ``mfcc_feats``: both tile their base pattern up to 60 dims,
    so hand arithmetic done in the base dimension carries over.
    """
    rng = rng or np.random.default_rng(0)
    reps = 60 // dim
    # one draw of every state's means, in the order of one draw per state
    means = np.tile(spread * rng.standard_normal((N_STATES, n_components, dim)), (1, 1, reps))
    return HmmSet(np.full((N_STATES, n_components), 1.0 / n_components), means,
                  np.ones((N_STATES, n_components, 60)), np.full(N_STATES, self_loop))


def state_gmm(model, s):
    """Row ``s`` of a stacked ``StateMixtures`` as its own ``DiagGmm``."""
    return DiagGmm(model.weights[s], model.means[s], model.variances[s])


def mfcc_feats(frames):
    """Wrap a (T, d) matrix as MFCC60 features by tiling to 60 dims."""
    frames = np.asarray(frames, dtype=np.float64)
    reps = 60 // frames.shape[1]
    assert 60 % frames.shape[1] == 0
    return FeatureSequence(np.tile(frames, (1, reps)), FeatureKind.MFCC60)


def scalar_log_gauss(x, mean, var):
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def scalar_gmm_loglike(gmm: DiagGmm, frame):
    """Direct density summation, one scalar at a time (max-shifted)."""
    comp_logs = []
    for c in range(gmm.n_components):
        log_n = np.log(gmm.weights[c])
        for d in range(gmm.dim):
            log_n += scalar_log_gauss(frame[d], gmm.means[c, d], gmm.variances[c, d])
        comp_logs.append(log_n)
    shift = max(comp_logs)
    return shift + np.log(sum(np.exp(v - shift) for v in comp_logs))


def enumerate_paths(n_states, t_max):
    """All monotone no-skip paths over states 0..n_states-1 of length t_max."""
    paths = []
    for bounds in itertools.combinations(range(1, t_max), n_states - 1):
        path = []
        prev = 0
        for s, b in enumerate(bounds):
            path.extend([s] * (b - prev))
            prev = b
        path.extend([n_states - 1] * (t_max - prev))
        paths.append(path)
    return paths


def enumeration_marginals(loglikes, self_loops):
    """Exhaustive-path state marginals, best path and both log-probabilities.

    ``loglikes`` is (T, S) for a linear left-to-right chain; transition out
    of state s has probability 1 - self_loops[s] (no branch splitting).
    Everything is computed with plain scalar arithmetic.
    """
    t_max, n_states = loglikes.shape
    paths = enumerate_paths(n_states, t_max)
    joint = []
    for path in paths:
        logp = loglikes[0][path[0]]
        for t in range(1, t_max):
            a, b = path[t - 1], path[t]
            trans = self_loops[a] if a == b else 1.0 - self_loops[a]
            logp += np.log(trans) + loglikes[t][b]
        joint.append(logp)
    joint = np.array(joint)
    best = int(np.argmax(joint))
    total = np.log(np.sum(np.exp(joint - joint.max()))) + joint.max()
    marg = np.zeros((t_max, n_states))
    for logp, path in zip(joint, paths):
        w = np.exp(logp - total)
        for t, s in enumerate(path):
            marg[t, s] += w
    return marg, np.array(paths[best]), float(joint[best]), float(total)


@pytest.fixture(scope="session")
def bench_corpus():
    from digitsv.synth import SynthConfig, generate_corpus

    return generate_corpus(SynthConfig(n_speakers=20, seed=42))


def train_models(corpus, cfg):
    """All four alignment models, each from its pipeline trainer."""
    from digitsv import pipeline
    from digitsv.neural_aligner import mlp_posteriors

    hmms = pipeline.train_hmms(corpus, cfg)
    mlp = pipeline.train_classifier(corpus, cfg, hmms)
    pgmm = pipeline.train_phonetic_gmms(corpus, cfg,
                                        lambda utt: mlp_posteriors(mlp, utt.feats))
    return pipeline.AlignerModels(hmms, mlp, pgmm, pipeline.train_ubm(corpus, cfg))


@pytest.fixture(scope="session")
def bench_models(bench_corpus):
    from digitsv.config import PipelineConfig

    return train_models(bench_corpus, PipelineConfig(ubm_components=32,
                                                     mlp_hidden="256,256", mlp_epochs=8))


@pytest.fixture(scope="session")
def small_corpus():
    from digitsv.synth import SynthConfig, generate_corpus

    return generate_corpus(SynthConfig(n_speakers=6, n_test=3, seed=11))


@pytest.fixture(scope="session")
def small_models(small_corpus):
    from digitsv.config import PipelineConfig

    return train_models(small_corpus, PipelineConfig(
        hmm_components=4, ubm_components=16, pgmm_components=4,
        mlp_hidden="64,64", mlp_epochs=6))


def roster_copy(speakers):
    """A roster over its own copy of ``speakers``' means, for a scorer to take."""
    from digitsv.map_speaker import SpeakerModels

    return SpeakerModels(speakers.ids, speakers.means.copy(), speakers.background_id,
                         speakers.relevance)


def roster_payload(ids, means):
    """A valid ``speaker_models`` DVMD payload."""
    return {"background_id": "ubm", "relevance": 16.0, "ids": list(ids), "means": means}


# each turns a valid three-speaker roster payload into one the loader must reject
ROSTER_DEFECTS = {
    "fewer models than ids": lambda p: {**p, "means": p["means"][:2]},
    "duplicate id": lambda p: {**p, "ids": [p["ids"][0], *p["ids"][1:-1], p["ids"][0]]},
    "2-D means": lambda p: {**p, "means": p["means"][0]},
    "ids not strings": lambda p: {**p, "ids": list(range(len(p["ids"])))},
    "zero relevance": lambda p: {**p, "relevance": 0.0},
    "negative relevance": lambda p: {**p, "relevance": -2.5},
}


# --- reference scorers: the per-trial forms the stacked scorers must equal ---------

def llr_score(means, background, gammas, feats) -> float:
    """Average per-frame log-likelihood ratio of adapted ``means`` vs the background.

    ``gammas`` are the (T, M) mixture posteriors.  Shared variances make the
    log-determinants cancel, leaving a posterior-weighted difference of
    quadratic terms.  The sum is divided by the number of frames carrying
    any retained mixture mass.  The per-frame reference for ``LinearLlr``.
    """
    if means.shape != background.means.shape:
        raise DigitsvError("speaker and background models differ in shape")
    if gammas.shape != (feats.n_frames, background.n_mixtures) or feats.dim != background.dim:
        raise DigitsvError("posteriors and features do not fit the background")
    rows, cols = np.nonzero(gammas)
    retained = np.unique(rows).size
    if retained == 0:
        raise DigitsvError("no frame carries any non-silence mixture mass")
    x = np.asarray(feats.frames[rows], dtype=np.float64)
    mu_b, mu_s = background.means[cols], means[cols]
    inv2v = 0.5 / background.variances[cols]
    per_entry = np.sum(((x - mu_b) ** 2 - (x - mu_s) ** 2) * inv2v, axis=1)
    return float(np.dot(gammas[rows, cols], per_entry) / retained)


def plda_score(backend, enroll, test) -> float:
    """Same- vs different-speaker PLDA log-likelihood ratio; the reference for ``PldaScorer``.

    ``enroll`` and ``test`` are prepared (projected and length-normalized)
    i-vectors.  Enrollment vectors are averaged and re-length-normalized, so
    the score is invariant to their order.
    """
    if not enroll:
        raise DigitsvError("no enrollment i-vectors given")
    if any(v.shape != (backend.dim,) for v in [*enroll, test]):
        raise DigitsvError("i-vector does not match the backend dimension")
    e = ivector.length_normalize(np.mean(enroll, axis=0)) - backend.mean
    t = test - backend.mean
    tot = backend.between + backend.within
    joint = np.block([[tot, backend.between], [backend.between, tot]])
    same = ivector._gaussian_logpdf(np.concatenate([e, t]), joint)
    diff = ivector._gaussian_logpdf(e, tot) + ivector._gaussian_logpdf(t, tot)
    return float(same - diff)


def heldout_cross_entropy(model, frames, labels) -> float:
    """Mean cross-entropy of ``labels`` under the classifier, a chunk of rows at a time."""
    frames = np.asarray(frames)
    return -neural_aligner._mean_log_posterior(model, frames, np.arange(frames.shape[0]),
                                               np.asarray(labels))
