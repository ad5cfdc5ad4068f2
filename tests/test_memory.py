"""One copy per trainer: peak-memory bounds and the copying paths they replaced.

Each trainer and kernel below used to hold its training frames (or the
speakers x M*D scoring matrix) two to four times over.  The tracemalloc
tests bound each peak in units of those bytes; the oracles are the replaced
copying code, kept verbatim, and the new code must equal them bit for bit.
Three exceptions agree to 1e-12 relative instead.  A ``gmm.train_em`` EM
step adds ``loglikes_and_posteriors`` of each ``gmm.EM_BLOCK`` row block into
an ``EmAccumulator``, where the update it replaced took its
responsibilities as ``exp(lw - log_tot)`` over the whole matrix.  The
stacked mixture kernels score every state with one pair of matrix products,
where the per-state loops they replaced made one pair per state, and BLAS
may sum those products in another order.  The HMM realignment pass adds
each utterance's sums into one accumulator, where the path it replaced
summed each state's gathered frames of the whole corpus at once.

Features read from DVFE files stay float32 and are widened one utterance,
EM block or minibatch at a time.  Trained on such a corpus, every trainer,
statistic and score equals the replaced path, the same frames held as
float64, bit for bit, and the stored-precision peaks are bounded in units
of the float32 frame bytes.
"""

import io
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from conftest import heldout_cross_entropy, roster_copy, state_gmm

from digitsv import formats, gmm as gmm_mod, hmm as hmm_mod, neural_aligner, pipeline
from digitsv import pgmm as pgmm_mod
from digitsv.config import PipelineConfig
from digitsv.errors import DigitsvError, EmptyStateWarning, NonFiniteLoss, StarvedState
from digitsv.features import FeatureKind, FeatureSequence
from digitsv.gmm import DiagGmm, EmAccumulator, GmmTrainConfig, train_em
from digitsv.hmm import N_STATES, HmmSet, compile_graph
from digitsv.map_speaker import LinearLlr
from digitsv.neural_aligner import MlpTrainConfig
from digitsv.pgmm import Background, Pgmm, init_pgmm, pgmm_e_step, pgmm_m_step


def _peak(fn):
    """(result, peak traced bytes) of ``fn()``, after one untraced warm-up call."""
    fn()  # first calls import and cache; they are not the trainer's footprint
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _enroll(corpus):
    return [u for u in corpus.utterances if u.split == "enroll"]


def _frame_bytes(corpus):
    """Bytes of the stacked float64 enrollment frames."""
    return sum(u.feats.frames.nbytes for u in _enroll(corpus))


def _assert_same_model(a, b):
    for name in ("weights", "biases"):
        for x, y in zip(getattr(a, name), getattr(b, name)):
            np.testing.assert_array_equal(x, y)
    for name in ("input_mean", "input_std", "class_priors"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def _assert_same_gmms(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(x, name), getattr(y, name))


def _assert_close_to_largest(got, want):
    """``got`` equals ``want`` to within 1e-12 of ``want``'s largest entry."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), \
        np.abs(got - want).max() / np.abs(want).max()


def _rows(model):
    """Every state's mixture of a stacked model, as its own ``DiagGmm``."""
    return [state_gmm(model, s) for s in range(len(model.weights))]


def _stacked(gmms):
    """(weights, means, variances) of a per-state list of mixtures, stacked."""
    return tuple(np.stack([getattr(g, name) for g in gmms])
                 for name in ("weights", "means", "variances"))


def em_step(gmm, data, floor):
    """One ``train_em`` EM step of ``gmm``: every row block into one ``EmAccumulator``."""
    accum, ll = EmAccumulator(gmm), 0.0
    for rows in gmm_mod._row_blocks(data.shape[0]):
        ll += accum.add(*gmm_mod.loglikes_and_posteriors(gmm, data[rows]), None, data[rows])
    return DiagGmm(*accum.update(gmm, floor)), ll


# --- the replaced paths --------------------------------------------------------

def em_update_oracle(gmm, data, floor, global_var, frame_weights=None):
    """The EM update ``train_em`` made before it shared ``EmAccumulator``, over one matrix.

    Dead components were re-seeded on the worst-modeled frames.  With
    ``frame_weights`` it is the frame-weighted update each HMM state made on
    its gathered frames before the states shared one accumulator.
    """
    lw = gmm_mod.log_weighted_densities(gmm, data)
    m = lw.max(axis=1, keepdims=True)
    log_tot = m + np.log(np.sum(np.exp(lw - m), axis=1, keepdims=True))
    resp = np.exp(lw - log_tot)
    if frame_weights is None:
        ll = float(log_tot.sum())
    else:
        ll = float(frame_weights @ log_tot[:, 0])
        resp = resp * frame_weights[:, None]
    counts = resp.sum(axis=0)
    empties = np.nonzero(counts < gmm_mod._EMPTY_COUNT)[0]
    if empties.size:
        order = np.argsort(log_tot[:, 0], kind="stable")
        weights = gmm.weights.copy()
        means = gmm.means.copy()
        variances = gmm.variances.copy()
        for k, comp in enumerate(empties):
            means[comp] = data[order[min(k, data.shape[0] - 1)]]
            variances[comp] = np.maximum(global_var, floor)
            weights[comp] = 1e-3
        weights /= weights.sum()
        return DiagGmm(weights, means, variances), ll
    weights = counts / counts.sum()
    means = (resp.T @ data) / counts[:, None]
    second = (resp.T @ (data ** 2)) / counts[:, None]
    return DiagGmm(weights, means, np.maximum(second - means ** 2, floor)), ll


def log_likelihoods_oracle(gmm, frames):
    lw = gmm_mod.log_weighted_densities(gmm, frames)
    m = lw.max(axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(lw - m), axis=1, keepdims=True)))[:, 0]


def component_posterior_matrix_oracle(gmm, frames):
    lw = gmm_mod.log_weighted_densities(gmm, frames)
    lw -= lw.max(axis=1, keepdims=True)
    p = np.exp(lw)
    p /= p.sum(axis=1, keepdims=True)
    return p


def realign_pass_oracle(hmms, corpus, graphs, floor, global_var):
    """``hmm._realign_pass`` with one frame-weighted update per state.

    Each state's frames above 1e-12 occupancy are gathered from the
    concatenated corpus and weighted by it.
    """
    all_frames, all_occ = [], []
    self_mass = np.zeros(N_STATES)
    cross_mass = np.zeros(N_STATES)
    total_fb = total_viterbi = 0.0
    for (feats, _), graph in zip(corpus, graphs):
        loglikes = gmm_mod.log_likelihoods(hmms, feats.frames)[:, graph.states]
        gamma, fb_ll, alpha, beta = hmm_mod._forward_backward_nodes(graph, loglikes,
                                                                    hmms.self_loop)
        _, vit_ll = hmm_mod._viterbi_nodes(graph, loglikes, hmms.self_loop)
        total_fb += fb_ll
        total_viterbi += vit_ll
        loop, _, _ = hmm_mod._arc_arrays(graph, hmms.self_loop)
        xi_self = np.exp(alpha[:-1] + loop + loglikes[1:] + beta[1:] - fb_ll)
        node_self = xi_self.sum(axis=0)
        node_cross = np.maximum(gamma[:-1].sum(axis=0) - node_self, 0.0)
        np.add.at(self_mass, graph.states, node_self)
        np.add.at(cross_mass, graph.states, node_cross)
        occ = np.zeros((feats.n_frames, N_STATES))
        np.add.at(occ.T, graph.states, gamma.T)
        all_frames.append(feats.frames)
        all_occ.append(occ)
    frames = np.concatenate(all_frames, axis=0)
    occ = np.concatenate(all_occ, axis=0)
    gmms = []
    for s in range(N_STATES):
        weights = occ[:, s]
        sel = weights > 1e-12
        if not sel.any():
            gmms.append(state_gmm(hmms, s))
            continue
        new, _ = em_update_oracle(state_gmm(hmms, s), frames[sel], floor, global_var,
                                  frame_weights=weights[sel])
        gmms.append(new)
    leaving = self_mass + cross_mass
    loop = np.where(leaving > 0, self_mass / np.maximum(leaving, 1e-30), hmms.self_loop)
    loop = np.clip(loop, hmm_mod.TRANSITION_FLOOR, 1.0 - hmm_mod.TRANSITION_FLOOR)
    return HmmSet(*_stacked(gmms), loop), total_fb, total_viterbi


def flat_start_oracle(corpus, graphs, dim, floor, global_mean, global_var):
    """``hmm._flat_start`` with one mixture built per state."""
    sums = np.zeros((N_STATES, dim))
    sqs = np.zeros((N_STATES, dim))
    counts = np.zeros(N_STATES)
    for (feats, _), graph in zip(corpus, graphs):
        mandatory = graph.states[~graph.optional]
        t = feats.n_frames
        bounds = np.floor(np.arange(len(mandatory) + 1) * t / len(mandatory)).astype(int)
        for k, s in enumerate(mandatory):
            seg = feats.frames[bounds[k]:bounds[k + 1]]
            if seg.shape[0]:
                sums[s] += seg.sum(axis=0)
                sqs[s] += (seg ** 2).sum(axis=0)
                counts[s] += seg.shape[0]
    gmms = []
    for s in range(N_STATES):
        if counts[s] >= 2:
            mean = sums[s] / counts[s]
            var = np.maximum(sqs[s] / counts[s] - mean ** 2, floor)
        else:
            mean, var = global_mean, np.maximum(global_var, floor)
        gmms.append(DiagGmm(np.array([1.0]), mean[None, :], var[None, :]))
    return gmms


def split_components_oracle(gmm):
    """``gmm.split_components`` of one mixture."""
    offset = 0.2 * np.sqrt(gmm.variances)
    c, d = gmm.means.shape
    means = np.empty((2 * c, d))
    means[0::2] = gmm.means - offset
    means[1::2] = gmm.means + offset
    variances = np.repeat(gmm.variances, 2, axis=0)
    weights = np.repeat(gmm.weights, 2) / 2.0
    return DiagGmm(weights, means, variances)


def pgmm_em_step_oracle(pgmm, accum):
    """``pgmm.pgmm_m_step`` on a given accumulator, one state's mixture at a time."""
    empty = pgmm_mod._EMPTY_COUNT
    global_second = accum.sxx.sum(axis=(0, 1))
    global_first = accum.sx.sum(axis=(0, 1))
    total_n = accum.n.sum()
    global_mean = global_first / max(total_n, empty)
    global_var = global_second / max(total_n, empty) - global_mean ** 2
    floor = np.maximum(gmm_mod.VARIANCE_FLOOR * np.maximum(global_var, 0.0), 1e-10)
    new_gmms = []
    for k in hmm_mod.DIGIT_STATES:
        g = state_gmm(pgmm, k)
        state_n = accum.n[k].sum()
        if state_n < empty:
            new_gmms.append(g)
            continue
        weights = accum.n[k] / state_n
        counts = accum.n[k]
        live = counts >= empty
        means = g.means.copy()
        variances = g.variances.copy()
        means[live] = accum.sx[k][live] / counts[live, None]
        variances[live] = np.maximum(
            accum.sxx[k][live] / counts[live, None] - means[live] ** 2, floor
        )
        new_gmms.append(DiagGmm(weights, means, variances))
    return new_gmms


def init_pgmm_oracle(alignments, feats_list, n_components, em_iterations=10):
    """``pgmm.init_pgmm`` with per-state buckets of copied frames."""
    buckets = {s: [] for s in hmm_mod.DIGIT_STATES}
    for align, feats in zip(alignments, feats_list):
        hard = align.argmax(axis=1)
        for s in np.unique(hard):
            if s in buckets:
                buckets[s].append(feats.frames[hard == s])
    gmms = []
    for s in hmm_mod.DIGIT_STATES:
        frames = np.concatenate(buckets[s], axis=0)
        gmms.append(train_em(frames, GmmTrainConfig(target_components=n_components,
                                                    em_iterations=em_iterations)))
    return Pgmm(*_stacked(gmms))


def per_state_oracle(kernel, model, frames):
    """A stacked kernel's output, made one state's ``DiagGmm`` at a time."""
    return np.stack([kernel(state_gmm(model, s), frames) for s in range(len(model.weights))],
                    axis=1)


def gmm_loglikes_oracle(graph, frames, hmms):
    """``hmm.node_loglikes`` with one mixture evaluated per distinct graph state."""
    uniq = np.unique(graph.states)
    per_state = {s: gmm_mod.log_likelihoods(state_gmm(hmms, s), frames) for s in uniq}
    return np.stack([per_state[s] for s in graph.states], axis=1)


def mixture_posteriors_oracle(model, align, feats, prune):
    """``pgmm.mixture_posteriors`` with one state's mixture evaluated at a time."""
    n_comp = model.n_components
    gammas = np.empty((feats.n_frames, len(hmm_mod.DIGIT_STATES) * n_comp))
    for s in hmm_mod.DIGIT_STATES:
        gammas[:, s * n_comp:(s + 1) * n_comp] = (
            align[:, s:s + 1]
            * gmm_mod.loglikes_and_posteriors(state_gmm(model, s), feats.frames)[1]
        )
    if prune > 0:
        gammas[gammas < prune] = 0.0
    return gammas


def accumulator_add_oracle(accum, model, occupancy, feats):
    """``gmm.EmAccumulator.add`` one state at a time, skipping states without mass."""
    x = feats.frames
    for s in range(len(model.weights)):
        mass = occupancy[:, s]
        if not mass.any():
            continue
        resp = gmm_mod.loglikes_and_posteriors(state_gmm(model, s), x)[1] * mass[:, None]
        accum.n[s] += resp.sum(axis=0)
        accum.sx[s] += resp.T @ x
        accum.sxx[s] += resp.T @ (x ** 2)
    return accum


def pgmm_objective_oracle(pgmm, aligns, feats):
    """``pgmm.pgmm_objective``, the separate pass that scored each EM step's model."""
    total = 0.0
    for a, f in zip(aligns, feats, strict=True):
        ll = gmm_mod.log_likelihoods(pgmm, f.frames)
        total += float(np.sum(a[:, :len(hmm_mod.DIGIT_STATES)] * ll))
    return total


def pgmm_objective_per_state_oracle(pgmm, aligns, feats):
    """``pgmm_objective_oracle`` one state's mixture at a time."""
    total = 0.0
    for a, f in zip(aligns, feats, strict=True):
        for s in hmm_mod.DIGIT_STATES:
            mass = a[:, s]
            if mass.any():
                total += float(mass @ gmm_mod.log_likelihoods(state_gmm(pgmm, s), f.frames))
    return total


def train_mlp_oracle(frames, labels, cfg):
    """``neural_aligner.train_mlp`` on copied training and held-out splits."""
    na = neural_aligner
    frames = np.asarray(frames, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(np.bincount(labels, minlength=cfg.n_outputs) == 0):
        raise DigitsvError("missing class")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(frames.shape[0])
    n_held = max(1, int(round(na.HELDOUT_FRACTION * frames.shape[0])))
    held_idx, train_idx = order[:n_held], order[n_held:]
    x_train, y_train = frames[train_idx], labels[train_idx]
    x_held, y_held = frames[held_idx], labels[held_idx]

    def held_ce(model):
        _, log_post = na._forward(model, x_held)
        return -float(log_post[np.arange(len(y_held)), y_held].mean())

    mean = x_train.mean(axis=0)
    std = np.sqrt(np.maximum(x_train.var(axis=0), 1e-8))
    priors = np.maximum(np.bincount(y_train, minlength=cfg.n_outputs) / len(y_train), 1e-8)
    model = na._init_model(frames.shape[1], cfg, mean, std, priors, rng)
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    lr = cfg.learning_rate
    best = (na._snapshot(model), held_ce(model))
    checkpoint = best[0]
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(y_train))
        for start in range(0, len(perm), cfg.batch_size):
            batch = perm[start:start + cfg.batch_size]
            loss, gw, gb = na.loss_and_gradients(model, x_train[batch], y_train[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss("non-finite", checkpoint=checkpoint)
            for k in range(len(model.weights)):
                vel_w[k] = na.MOMENTUM * vel_w[k] - lr * gw[k]
                vel_b[k] = na.MOMENTUM * vel_b[k] - lr * gb[k]
                model.weights[k] += vel_w[k]
                model.biases[k] += vel_b[k]
        lr *= na.LR_DECAY
        checkpoint = na._snapshot(model)
        ce = held_ce(model)
        if ce < best[1]:
            best = (checkpoint, ce)
    return best[0]


def train_classifier_oracle(corpus, cfg, hmms):
    """``pipeline.train_classifier`` on the concatenated frames."""
    frames, labels = [], []
    for utt in _enroll(corpus):
        graph = compile_graph(utt.content, cfg.silence_policy)
        labels.append(hmm_mod.viterbi_align(graph, hmm_mod.node_loglikes(graph, utt.feats, hmms),
                                             hmms))
        frames.append(utt.feats.frames)
    return train_mlp_oracle(np.concatenate(frames, axis=0), np.concatenate(labels),
                            MlpTrainConfig(hidden_dims=cfg.mlp_hidden_dims,
                                           epochs=cfg.mlp_epochs,
                                           learning_rate=cfg.mlp_learning_rate,
                                           batch_size=cfg.mlp_batch_size,
                                           input_kind=FeatureKind.MFCC60, seed=cfg.seed))


def linear_llr_oracle(speakers, background):
    """``LinearLlr``'s weights and halves from stacked speakers x M x D arrays."""
    offsets = np.stack(list(speakers.values())) - background.means
    weights = offsets / background.variances
    return (weights.reshape(len(speakers), -1),
            0.5 * np.sum(offsets * weights, axis=2))


def write_tagged_oracle(out, value):
    """``formats._write_tagged`` with each array copied by ``tobytes``."""
    import struct

    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            arr, code = value.astype("<f8", copy=False), b"d"
        else:
            arr, code = value.astype("<i8", copy=False), b"l"
        out.append(b"A" + code + struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.tobytes())
    elif isinstance(value, dict):
        out.append(b"D" + struct.pack("<I", len(value)))
        for key in value:
            raw = key.encode("utf-8")
            out.append(struct.pack("<H", len(raw)) + raw)
            write_tagged_oracle(out, value[key])
    else:
        formats._write_tagged(out, value)


# --- equality with the replaced paths ------------------------------------------------

class TestKernelsMatchOracles:
    @pytest.fixture
    def mixture(self):
        rng = np.random.default_rng(20)
        gmm = DiagGmm(np.array([0.2, 0.3, 0.5]), rng.standard_normal((3, 7)),
                      0.5 + rng.random((3, 7)))
        return gmm, rng.standard_normal((400, 7)) * 1.5

    @pytest.mark.parametrize("rows", [400, gmm_mod.EM_BLOCK, 3 * gmm_mod.EM_BLOCK + 17])
    def test_em_step(self, mixture, rows):
        gmm, _ = mixture
        data = np.random.default_rng(rows).standard_normal((rows, 7)) * 1.5
        floor, global_var = np.full(7, 1e-3), data.var(axis=0)
        got, got_ll = em_step(gmm, data, floor)
        want, want_ll = em_update_oracle(gmm, data, floor, global_var)
        for name in ("weights", "means", "variances"):
            _assert_close_to_largest(getattr(got, name), getattr(want, name))
        assert got_ll == pytest.approx(want_ll, rel=1e-12, abs=0)

    @pytest.mark.parametrize("rows", [400, 3 * gmm_mod.EM_BLOCK + 17])
    def test_em_step_keeps_dead_components(self, mixture, rows):
        # component 2 parked at 1e3 gets no count: it keeps its mean and
        # variance, and the live two are updated as if it were not there
        gmm, _ = mixture
        data = np.random.default_rng(rows).standard_normal((rows, 7)) * 1.5
        far = DiagGmm(gmm.weights, np.vstack([gmm.means[:2], np.full((1, 7), 1e3)]),
                      gmm.variances)
        floor = np.full(7, 1e-3)
        got, _ = em_step(far, data, floor)
        np.testing.assert_array_equal(got.means[2], far.means[2])
        np.testing.assert_array_equal(got.variances[2], far.variances[2])
        assert got.weights[2] == 0.0 and abs(got.weights.sum() - 1.0) <= 1e-15
        live = DiagGmm(gmm.weights[:2] / gmm.weights[:2].sum(), gmm.means[:2], gmm.variances[:2])
        want, _ = em_update_oracle(live, data, floor, data.var(axis=0))
        for name in ("weights", "means", "variances"):
            _assert_close_to_largest(getattr(got, name)[:2], getattr(want, name))

    def test_accumulator_takes_one_mixture_as_one_row(self, mixture):
        # the same mixture as a DiagGmm and as a one-state StateMixtures,
        # with component 2 dead
        gmm, data = mixture
        far = DiagGmm(gmm.weights, np.vstack([gmm.means[:2], np.full((1, 7), 1e3)]),
                      gmm.variances)
        stacked = gmm_mod.StateMixtures(far.weights[None], far.means[None], far.variances[None])
        one, row = EmAccumulator(far), EmAccumulator(stacked)
        one_ll = one.add(*gmm_mod.loglikes_and_posteriors(far, data), None, data)
        row_ll = row.add(*gmm_mod.loglikes_and_posteriors(stacked, data),
                         np.ones((data.shape[0], 1)), data)
        assert one_ll == row_ll
        assert one.n[2] == 0.0
        floor = np.full(7, 1e-3)
        for got, want in zip(one.update(far, floor), row.update(stacked, floor)):
            np.testing.assert_array_equal(got, want[0])

    @pytest.mark.parametrize("rows", [gmm_mod.EM_BLOCK, 3 * gmm_mod.EM_BLOCK + 17])
    def test_train_em_steps_are_oracle_steps(self, rows):
        # split the closed-form start, then two EM steps
        rng = np.random.default_rng(rows)
        data = rng.standard_normal((rows, 5)) + 3.0 * (rng.random((rows, 1)) < 0.4)
        cfg = GmmTrainConfig(target_components=2, em_iterations=2)
        got = train_em(data, cfg)
        var = data.var(axis=0)
        floor = np.maximum(gmm_mod.VARIANCE_FLOOR * var, 1e-10)
        want = DiagGmm(*gmm_mod.split_components(
            DiagGmm(np.ones(1), data.mean(axis=0)[None], np.maximum(var, floor)[None])))
        lls = []
        for _ in range(cfg.em_iterations):
            want, ll = em_update_oracle(want, data, floor, var)
            lls.append(ll)
        for name in ("weights", "means", "variances"):
            _assert_close_to_largest(getattr(got, name), getattr(want, name))
        (size, got_lls), = got.training_log
        assert size == 2
        assert got_lls[:2] == pytest.approx(lls, rel=1e-12, abs=0)

    def test_train_em_log_nondecreasing_over_blocks(self):
        rng = np.random.default_rng(27)
        centres = 4.0 * rng.standard_normal((4, 5))
        data = centres[rng.integers(0, 4, 3 * gmm_mod.EM_BLOCK + 17)] \
            + rng.standard_normal((3 * gmm_mod.EM_BLOCK + 17, 5))
        model = train_em(data, GmmTrainConfig(target_components=8))
        assert [size for size, _ in model.training_log] == [2, 4, 8]
        for size, lls in model.training_log:
            lls = np.array(lls)
            assert np.all(np.diff(lls) >= -1e-12 * np.abs(lls[:-1])), (size, lls)

    def test_likelihoods_and_posteriors(self, mixture):
        # one scoring gives both, each with the arithmetic of its own former kernel
        gmm, data = mixture
        loglikes, posteriors = gmm_mod.loglikes_and_posteriors(gmm, data)
        np.testing.assert_array_equal(gmm_mod.log_likelihoods(gmm, data),
                                      log_likelihoods_oracle(gmm, data))
        np.testing.assert_array_equal(loglikes, log_likelihoods_oracle(gmm, data))
        np.testing.assert_array_equal(posteriors, component_posterior_matrix_oracle(gmm, data))

    @pytest.mark.parametrize("frames", [1, 37, 173])
    @pytest.mark.parametrize("components", [1, 2, 4, 16])
    def test_stacked_kernels(self, components, frames):
        rng = np.random.default_rng(100 * components + frames)
        weights = rng.random((N_STATES, components)) + 0.1
        model = gmm_mod.StateMixtures(weights / weights.sum(axis=1, keepdims=True),
                                      rng.standard_normal((N_STATES, components, 60)),
                                      0.5 + rng.random((N_STATES, components, 60)))
        x = 1.5 * rng.standard_normal((frames, 60))
        for kernel in (gmm_mod.log_weighted_densities, gmm_mod.log_likelihoods,
                       lambda m, f: gmm_mod.loglikes_and_posteriors(m, f)[1]):
            _assert_close_to_largest(kernel(model, x), per_state_oracle(kernel, model, x))
        np.testing.assert_array_equal(gmm_mod.loglikes_and_posteriors(model, x)[0],
                                      gmm_mod.log_likelihoods(model, x))

    def test_gmm_loglikes(self, small_corpus, small_models):
        for u in _enroll(small_corpus)[:4]:
            graph = compile_graph(u.content, "optional_between")
            _assert_close_to_largest(
                hmm_mod.node_loglikes(graph, u.feats, small_models.hmms),
                gmm_loglikes_oracle(graph, u.feats.frames, small_models.hmms))

    @pytest.mark.parametrize("prune", [0.0, pgmm_mod.PRUNE_DEFAULT])
    @pytest.mark.parametrize("source", ["gmm-hmm", "dnn"])
    def test_mixture_posteriors(self, small_corpus, small_models, source, prune):
        # state 5 carries no mass
        model = small_models.hmms if source == "gmm-hmm" else small_models.pgmm
        for u in _enroll(small_corpus)[:4]:
            align = neural_aligner.mlp_posteriors(small_models.mlp, u.feats)
            align[:, 5] = 0.0
            got = pgmm_mod.mixture_posteriors(model, align, u.feats, prune)
            _assert_close_to_largest(got, mixture_posteriors_oracle(model, align, u.feats,
                                                                    prune))
            assert not got[:, 5 * model.n_components:6 * model.n_components].any()

    def test_accumulator_add(self, small_corpus, small_models):
        # the HMM set under (T, 33) forward-backward occupancies, the PGMM
        # under the classifier's digit-state posteriors; state 5 carries no mass
        hmms, pgmm = small_models.hmms, small_models.pgmm
        for model in (hmms, pgmm):
            got, want = EmAccumulator(model), EmAccumulator(model)
            for u in _enroll(small_corpus)[:6]:
                if model is hmms:
                    graph = compile_graph(u.content, "optional_between")
                    occupancy = hmm_mod.fb_align(
                        graph, hmm_mod.node_loglikes(graph, u.feats, hmms), hmms)
                else:
                    occupancy = neural_aligner.mlp_posteriors(small_models.mlp, u.feats)[:, :30]
                occupancy[:, 5] = 0.0
                got.add(*gmm_mod.loglikes_and_posteriors(model, u.feats.frames), occupancy,
                        u.feats.frames)
                accumulator_add_oracle(want, model, occupancy, u.feats)
            for name in ("n", "sx", "sxx"):
                _assert_close_to_largest(getattr(got, name), getattr(want, name))
            assert not got.n[5].any()

    def test_pgmm_objective(self, small_corpus, small_models):
        enroll = _enroll(small_corpus)[:6]
        aligns = [neural_aligner.mlp_posteriors(small_models.mlp, u.feats) for u in enroll]
        feats = [u.feats for u in enroll]
        _, got = pgmm_e_step(small_models.pgmm, aligns, feats)
        assert got == pgmm_objective_oracle(small_models.pgmm, aligns, feats)
        assert got == pgmm_mod.pgmm_objective(small_models.pgmm, aligns, feats)
        assert got == pytest.approx(
            pgmm_objective_per_state_oracle(small_models.pgmm, aligns, feats), rel=1e-12, abs=0)

    @pytest.mark.parametrize("dim", [2, 60])
    def test_column_mean_var(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            sizes = rng.integers(1, 300, size=int(rng.integers(1, 12)))
            chunks = [rng.standard_normal((int(n), dim)) * rng.uniform(0.1, 50) + 3.0
                      for n in sizes]
            stacked = np.concatenate(chunks, axis=0)
            mean, var = gmm_mod.column_mean_var(lambda: iter(chunks))
            np.testing.assert_array_equal(mean, stacked.mean(axis=0))
            np.testing.assert_array_equal(var, stacked.var(axis=0))

    def test_linear_llr(self, small_corpus, small_models):
        # the oracle reads the roster before the scorer takes it
        system = pipeline.SpeakerSystem("dnn-hmm", small_models)
        speakers = pipeline.enroll_speakers(small_corpus, system)
        weights, halves = linear_llr_oracle(speakers, system.background)
        scorer = LinearLlr(speakers, system.background)
        np.testing.assert_array_equal(scorer.weights, weights)
        np.testing.assert_array_equal(scorer.halves, halves)
        assert len(speakers) == 0
        with pytest.raises(KeyError):
            speakers[small_corpus.speakers[0]]

    def test_flat_start(self):
        # one 10-frame "1" gives its digit's states 1 frame each under the
        # uniform segmentation; digits outside "1", "2" and "3" get none
        rng = np.random.default_rng(28)
        corpus = [(FeatureSequence(rng.standard_normal((t, 60)), FeatureKind.MFCC60), text)
                  for t, text in ((10, "1"), (40, "23"), (31, "3"))]
        graphs = [compile_graph(text, "optional_between") for _, text in corpus]
        mean, var = gmm_mod.column_mean_var(lambda: (f.frames for f, _ in corpus))
        floor = np.maximum(gmm_mod.VARIANCE_FLOOR * var, 1e-10)
        got = hmm_mod._flat_start(corpus, graphs, 60, floor, mean, var)
        want = flat_start_oracle(corpus, graphs, 60, floor, mean, var)
        _assert_same_gmms(_rows(got), want)
        # states 3..5 got one frame each and 0..2 none: both start from the global statistics
        for s in range(6):
            np.testing.assert_array_equal(got.means[s, 0], mean)

    def test_split_components_per_row(self, small_models):
        hmms = small_models.hmms
        got = HmmSet(*gmm_mod.split_components(hmms), hmms.self_loop)
        _assert_same_gmms(_rows(got), [split_components_oracle(g) for g in _rows(hmms)])

    def test_pgmm_em_step(self, small_corpus, small_models):
        # state 5 gets no mass, and state 7's far component no occupancy
        pgmm = small_models.pgmm
        means = pgmm.means.copy()
        means[7, 2] = 1e3
        pgmm = Pgmm(pgmm.weights, means, pgmm.variances)
        enroll = _enroll(small_corpus)[:6]
        aligns = [neural_aligner.mlp_posteriors(small_models.mlp, u.feats) for u in enroll]
        for align in aligns:
            align[:, 5] = 0.0
        accum, _ = pgmm_e_step(pgmm, aligns, [u.feats for u in enroll])
        assert accum.n[5].sum() == 0.0 and accum.n[7, 2] < pgmm_mod._EMPTY_COUNT
        with pytest.warns(EmptyStateWarning, match=r"states \[5\]"):
            got = pgmm_m_step(pgmm, accum)
        want = pgmm_em_step_oracle(pgmm, accum)
        _assert_same_gmms(_rows(got), want)
        np.testing.assert_array_equal(got.means[7, 2], means[7, 2])

    def test_update_keeps_dead_rows_and_components(self, small_corpus, small_models):
        # state 5 gets no occupancy, and state 7's first component sits far from the data
        hmms = small_models.hmms
        means = hmms.means.copy()
        means[7, 0] = 1e3
        hmms = HmmSet(hmms.weights, means, hmms.variances, hmms.self_loop)
        accum = EmAccumulator(hmms)
        for u in _enroll(small_corpus):
            graph = compile_graph(u.content, "optional_between")
            occupancy = hmm_mod.fb_align(graph, hmm_mod.node_loglikes(graph, u.feats, hmms), hmms)
            occupancy[:, 5] = 0.0
            accum.add(*gmm_mod.loglikes_and_posteriors(hmms, u.feats.frames), occupancy,
                      u.feats.frames)
        assert accum.n[5].sum() == 0.0 and accum.n[7, 0] < gmm_mod._EMPTY_COUNT
        assert accum.n[7].sum() > 1.0
        got = HmmSet(*accum.update(hmms, np.full(hmms.dim, 1e-3)), hmms.self_loop)
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(got, name)[5], getattr(hmms, name)[5])
        np.testing.assert_array_equal(got.means[7, 0], means[7, 0])
        np.testing.assert_array_equal(got.variances[7, 0], hmms.variances[7, 0])
        assert got.weights[7, 0] < gmm_mod._EMPTY_COUNT
        assert got.weights[7].sum() == pytest.approx(1.0, rel=0, abs=1e-12)

    @pytest.mark.parametrize("source", ["gmm-hmm", "dnn"])
    def test_background_is_a_view(self, small_models, source):
        model = small_models.hmms if source == "gmm-hmm" else small_models.pgmm
        bg = Background.of(model, source)
        digits = _rows(model)[:len(hmm_mod.DIGIT_STATES)]
        np.testing.assert_array_equal(bg.means, np.concatenate([g.means for g in digits]))
        np.testing.assert_array_equal(bg.variances,
                                      np.concatenate([g.variances for g in digits]))
        assert np.shares_memory(bg.means, model.means)
        assert np.shares_memory(bg.variances, model.variances)

    def test_write_tagged(self):
        rng = np.random.default_rng(22)
        payload = {"matrix": rng.standard_normal((4, 5)),
                   "transposed": rng.standard_normal((5, 3)).T,
                   "strided": rng.standard_normal(12)[::3],
                   "ints": np.arange(6, dtype=np.int32).reshape(2, 3),
                   "empty": np.zeros((0, 4)), "scalar": np.array(2.5),
                   "nested": {"list": [np.ones(3), 1.5, "x", None]}}
        got, want = [], []
        formats._write_tagged(got, payload)
        write_tagged_oracle(want, payload)
        buf = io.BytesIO()
        buf.writelines(got)
        assert buf.getvalue() == b"".join(want)


class TestTrainersMatchOracles:
    def test_train_hmm_set_global_statistics(self, small_corpus):
        frames = [u.feats.frames for u in _enroll(small_corpus)]
        stacked = np.concatenate(frames, axis=0)
        mean, var = gmm_mod.column_mean_var(lambda: iter(frames))
        np.testing.assert_array_equal(mean, stacked.mean(axis=0))
        np.testing.assert_array_equal(var, stacked.var(axis=0))

    def test_realign_pass(self, small_corpus, small_models):
        # one pass at each size, the oracle's from the same input model
        corpus = [(u.feats, u.content) for u in _enroll(small_corpus)]
        graphs = [compile_graph(text, "optional_between") for _, text in corpus]
        mean, var = gmm_mod.column_mean_var(lambda: (f.frames for f, _ in corpus))
        floor = np.maximum(gmm_mod.VARIANCE_FLOOR * var, 1e-10)
        hmms = hmm_mod._flat_start(corpus, graphs, mean.shape[0], floor, mean, var)
        for components in (1, 2, 4, 16):
            while hmms.n_components < components:
                hmms = HmmSet(*gmm_mod.split_components(hmms), hmms.self_loop)
            got = hmm_mod._realign_pass(hmms, corpus, graphs, floor)
            want = realign_pass_oracle(hmms, corpus, graphs, floor, var)
            for name in ("weights", "means", "variances"):
                _assert_close_to_largest(getattr(got[0], name), getattr(want[0], name))
            np.testing.assert_array_equal(got[0].self_loop, want[0].self_loop)
            assert got[1:] == want[1:]
            hmms = got[0]

    def test_init_pgmm(self, small_corpus, small_models):
        enroll = _enroll(small_corpus)
        aligns = [neural_aligner.mlp_posteriors(small_models.mlp, u.feats) for u in enroll]
        feats = [u.feats for u in enroll]
        got = init_pgmm(aligns, feats, n_components=2, em_iterations=3)
        want = init_pgmm_oracle(aligns, feats, n_components=2, em_iterations=3)
        _assert_same_gmms(_rows(got), _rows(want))

    def test_train_pgmm_logs_each_steps_objective(self, small_corpus, small_models):
        enroll = _enroll(small_corpus)
        aligns = [neural_aligner.mlp_posteriors(small_models.mlp, u.feats) for u in enroll]
        feats = [u.feats for u in enroll]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyStateWarning)
            got = pgmm_mod.train_pgmm(aligns, feats, n_components=2, em_iterations=3)
            want = init_pgmm(aligns, feats, n_components=2)
            log = []
            for _ in range(3):
                want = pgmm_m_step(want, pgmm_e_step(want, aligns, feats)[0])
                log.append(pgmm_objective_oracle(want, aligns, feats))
        _assert_same_gmms(_rows(got), _rows(want))
        assert got.training_log == log

    def test_train_pgmm_fills_no_sums_it_does_not_read(self, small_corpus, small_models,
                                                       monkeypatch):
        # one E-step per M-step; the final model's objective needs no EM sums
        enroll = _enroll(small_corpus)
        aligns = [neural_aligner.mlp_posteriors(small_models.mlp, u.feats) for u in enroll]
        feats = [u.feats for u in enroll]
        calls, e_step = [], pgmm_mod.pgmm_e_step
        monkeypatch.setattr(pgmm_mod, "pgmm_e_step",
                            lambda *args: calls.append(1) or e_step(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyStateWarning)
            got = pgmm_mod.train_pgmm(aligns, feats, n_components=2, em_iterations=3)
        assert len(calls) == 3 and len(got.training_log) == 3

    def test_train_pgmm_without_steps(self, small_corpus, small_models, monkeypatch):
        enroll = _enroll(small_corpus)
        aligns = [neural_aligner.mlp_posteriors(small_models.mlp, u.feats) for u in enroll]
        feats = [u.feats for u in enroll]
        monkeypatch.setattr(pgmm_mod, "pgmm_e_step", None)  # no E-step may run
        got = pgmm_mod.train_pgmm(aligns, feats, n_components=2, em_iterations=0)
        _assert_same_gmms(_rows(got), _rows(init_pgmm(aligns, feats, n_components=2)))
        assert got.training_log == []

    def test_init_pgmm_still_reports_starved_states(self, small_corpus, small_models):
        u = _enroll(small_corpus)[0]
        align = neural_aligner.mlp_posteriors(small_models.mlp, u.feats)
        with pytest.raises(StarvedState):
            init_pgmm([align], [u.feats], n_components=64)
        with pytest.raises(StarvedState):
            init_pgmm([], [])

    # 2570 frames hold out 257: two chunks of the held-out loss, neither of one row
    @pytest.mark.parametrize("n", [700, 2570, 3000])
    def test_train_mlp(self, n):
        rng = np.random.default_rng(n)
        labels = rng.integers(0, 3, n)
        frames = rng.standard_normal((n, 9)) + 2.0 * labels[:, None]
        cfg = MlpTrainConfig(hidden_dims=(12, 7), n_outputs=3, epochs=3, batch_size=64,
                             seed=4)
        _assert_same_model(neural_aligner.train_mlp(frames, labels, cfg),
                           train_mlp_oracle(frames, labels, cfg))

    @pytest.mark.parametrize("n", [257, 900])
    def test_heldout_cross_entropy(self, n):
        rng = np.random.default_rng(23)
        labels = rng.integers(0, 3, n)
        frames = rng.standard_normal((n, 9)) + labels[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # one epoch need not beat the prior
            model = neural_aligner.train_mlp(frames, labels, MlpTrainConfig(
                hidden_dims=(8,), n_outputs=3, epochs=1, seed=1))
        _, log_post = neural_aligner._forward(model, frames)
        want = -float(log_post[np.arange(n), labels].mean())
        assert heldout_cross_entropy(model, frames, labels) == want

    def test_train_classifier(self, small_corpus, small_models):
        cfg = PipelineConfig(mlp_hidden="16", mlp_epochs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a two-epoch classifier may not beat the prior
            got = pipeline.train_classifier(small_corpus, cfg, small_models.hmms)
            want = train_classifier_oracle(small_corpus, cfg, small_models.hmms)
        _assert_same_model(got, want)

    def test_train_ubm(self, small_corpus):
        cfg = PipelineConfig(ubm_components=8)
        frames = np.concatenate([u.feats.frames for u in _enroll(small_corpus)], axis=0)
        _assert_same_gmms([pipeline.train_ubm(small_corpus, cfg)],
                          [train_em(frames, GmmTrainConfig(target_components=8))])


# --- features at stored precision ----------------------------------------------------

@pytest.fixture(scope="module")
def stored(small_corpus, tmp_path_factory):
    """``small_corpus`` written as a corpus directory and read back (float32 frames,
    read afresh on every access), and the replaced path: the same frames held in
    memory as float64."""
    from digitsv.corpus import Corpus, Utterance, read_corpus, write_corpus

    root = tmp_path_factory.mktemp("stored")
    write_corpus(root, small_corpus)
    disk = read_corpus(str(root))
    wide = Corpus([
        Utterance(u.utt_id, u.speaker, u.content, u.split,
                  FeatureSequence(u.feats.frames.astype(np.float64), u.feats.kind))
        for u in disk.utterances], list(small_corpus.trials))
    return disk, wide


def _stored_bytes(corpus):
    """Bytes of the enrollment frames as DVFE stores them, float32."""
    return sum(u.feats.n_frames * u.feats.dim * np.dtype(np.float32).itemsize
               for u in _enroll(corpus))


def _assert_same_arrays(a, b):
    for name in ("weights", "means", "variances", "self_loop"):
        if hasattr(a, name):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.training_log == b.training_log


class TestStoredPrecision:
    """float32 frames widened a block at a time give what float64 frames give, bit for bit."""

    def test_corpus_is_float32(self, stored):
        disk, wide = stored
        assert all(u.feats.frames.dtype == np.float32 for u in disk.utterances)
        assert all(u.feats.frames.dtype == np.float64 for u in wide.utterances)

    def test_train_hmms(self, stored):
        cfg = PipelineConfig(hmm_components=2)
        _assert_same_arrays(*(pipeline.train_hmms(c, cfg) for c in stored))

    def test_train_classifier(self, stored, small_models):
        cfg = PipelineConfig(mlp_hidden="16", mlp_epochs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a two-epoch classifier may not beat the prior
            got, want = (pipeline.train_classifier(c, cfg, small_models.hmms) for c in stored)
        _assert_same_model(got, want)

    def test_train_phonetic_gmms(self, stored, small_models):
        cfg = PipelineConfig(pgmm_components=2, pgmm_em_iterations=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyStateWarning)
            got, want = (pipeline.train_phonetic_gmms(
                c, cfg, lambda utt: neural_aligner.mlp_posteriors(small_models.mlp, utt.feats))
                for c in stored)
        _assert_same_arrays(got, want)

    def test_train_ubm(self, stored):
        cfg = PipelineConfig(ubm_components=8)
        _assert_same_arrays(*(pipeline.train_ubm(c, cfg) for c in stored))

    @pytest.mark.parametrize("source", ["gmm-hmm", "dnn", "dnn-hmm", "ubm"])
    def test_statistics_and_scores(self, stored, small_models, source):
        system = pipeline.SpeakerSystem(source, small_models)
        keys, scores = [], []
        for corpus in stored:
            utt = next(u for u in corpus.utterances if u.split == "test")
            feats = utt.feats
            forced = None if source == "ubm" else pipeline.align(source, small_models, feats,
                                                                 utt.content)
            stats, retained = system.statistics(feats, forced)
            keys.append((stats.n, stats.f, retained))
            speakers = pipeline.enroll_speakers(corpus, system)
            scores.append((speakers.means.copy(), pipeline.score_speaker_trials(
                corpus, stored[1].trials, system, speakers)))
        (n, f, retained), (want_n, want_f, want_retained) = keys
        np.testing.assert_array_equal(n, want_n)
        np.testing.assert_array_equal(f, want_f)
        assert retained == want_retained
        np.testing.assert_array_equal(scores[0][0], scores[1][0])
        assert scores[0][1] == scores[1][1]

    @pytest.mark.parametrize("hmm_mode", ["gmm", "hybrid"])
    def test_content_scores(self, stored, small_models, hmm_mode):
        got, want = (pipeline.score_content_trials(c, stored[1].trials, small_models,
                                                   hmm_mode=hmm_mode) for c in stored)
        assert got == want

    def test_walk_widens_each_utterance_once(self, stored, small_models, monkeypatch):
        # every kernel that would widen a key's frames gets them float64 already
        disk, trials = stored[0], stored[1].trials
        dtypes = []
        for mod, name, frames_of in ((gmm_mod, "_check_frames", lambda args: args[1]),
                                     (pgmm_mod, "accumulate_stats", lambda args: args[1].frames),
                                     (neural_aligner, "posterior_matrix", lambda args: args[1])):
            def recording(*args, _original=getattr(mod, name), _frames_of=frames_of, **kwargs):
                dtypes.append(_frames_of(args).dtype)
                return _original(*args, **kwargs)
            for holder in (mod, pipeline):  # pipeline imports some kernels by name
                if hasattr(holder, name):
                    monkeypatch.setattr(holder, name, recording)
        for source in ("gmm-hmm", "dnn", "dnn-hmm", "ubm"):
            system = pipeline.SpeakerSystem(source, small_models)
            pipeline.score_speaker_trials(disk, trials, system,
                                          pipeline.enroll_speakers(disk, system))
        for hmm_mode in ("gmm", "hybrid"):
            pipeline.score_content_trials(disk, trials, small_models, hmm_mode=hmm_mode)
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}, len(dtypes)

    def test_frame_matrix_keeps_a_wider_utterance(self):
        narrow = np.arange(12, dtype=np.float32).reshape(4, 3)
        wide = np.full((2, 3), 1.0 + 2.0 ** -40)  # not a float32 value
        feats = {"a": types.SimpleNamespace(frames=narrow),
                 "b": types.SimpleNamespace(frames=wide)}
        got = pipeline._frame_matrix(["a", "b"], feats.get, 6)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.concatenate([narrow, wide]))
        alone = pipeline._frame_matrix(["a"], feats.get, 4)
        assert alone.dtype == np.float32

# --- peak memory ------------------------------------------------------------------------

class TestPeakMemory:
    """Peaks on ``small_corpus`` in units of the stacked enrollment frames (F bytes)."""

    def test_train_hmms(self, small_corpus):
        # one utterance's posteriors and alignment arrays at a time: 0.74 F;
        # the corpus's occupancies (33/60 F) plus one state's gathered frames
        # took 1.12 F, and concatenating frames and occupancies 2.7 F
        frames = _frame_bytes(small_corpus)
        _, peak = _peak(lambda: pipeline.train_hmms(small_corpus,
                                                    PipelineConfig(hmm_components=1)))
        assert peak < 1.0 * frames, (peak / frames)

    def test_train_classifier(self, small_corpus, small_models):
        # one frame matrix plus one minibatch step: 2.0 F; a concatenation and
        # the copied training and held-out splits took 3.0 F
        frames = _frame_bytes(small_corpus)
        cfg = PipelineConfig(mlp_hidden="64,64", mlp_epochs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, peak = _peak(lambda: pipeline.train_classifier(small_corpus, cfg,
                                                              small_models.hmms))
        assert peak < 2.5 * frames, (peak / frames)

    def test_train_ubm(self, small_corpus, monkeypatch):
        # the frame matrix plus a few blocks' temporaries (3.5 blocks of 256
        # frames, 1.27 F); whole-matrix squares and responsibilities (R = 0.53 F)
        # took 2F + 1.1R
        monkeypatch.setattr(gmm_mod, "EM_BLOCK", 256)
        frames = _frame_bytes(small_corpus)
        block = gmm_mod.EM_BLOCK * small_corpus.utterances[0].feats.dim * 8
        _, peak = _peak(lambda: pipeline.train_ubm(small_corpus,
                                                   PipelineConfig(ubm_components=32)))
        assert peak < frames + 5 * block, (peak / frames)

    def test_train_phonetic_gmms(self, small_corpus, small_models):
        # one state's frames at a time: 0.2 F; per-state buckets holding every
        # frame took 1.05 F
        frames = _frame_bytes(small_corpus)
        aligns = {u.utt_id: neural_aligner.mlp_posteriors(small_models.mlp, u.feats)
                  for u in _enroll(small_corpus)}
        cfg = PipelineConfig(pgmm_components=2, pgmm_em_iterations=1)
        _, peak = _peak(lambda: pipeline.train_phonetic_gmms(
            small_corpus, cfg, lambda utt: aligns[utt.utt_id]))
        assert peak < 0.5 * frames, (peak / frames)

    # the same trainers on a DVFE corpus, in units of its float32 frame bytes
    # (F32); each holds its frames at stored precision and widens one
    # utterance, EM block or minibatch at a time, where float64 reads and
    # matrices held them twice over

    def test_train_hmms_stored(self, stored):
        # every utterance's frames plus one utterance's temporaries: 2.6 F32;
        # float64 frames took 3.5 F32
        disk, _ = stored
        _, peak = _peak(lambda: pipeline.train_hmms(disk, PipelineConfig(hmm_components=1)))
        assert peak < 3.0 * _stored_bytes(disk), (peak / _stored_bytes(disk))

    def test_train_classifier_stored(self, stored, small_models):
        # a float32 frame matrix plus one minibatch step: 3.1 F32; a float64
        # matrix took 4.2 F32
        disk, _ = stored
        cfg = PipelineConfig(mlp_hidden="64,64", mlp_epochs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, peak = _peak(lambda: pipeline.train_classifier(disk, cfg, small_models.hmms))
        assert peak < 3.6 * _stored_bytes(disk), (peak / _stored_bytes(disk))

    def test_train_ubm_stored(self, stored, monkeypatch):
        # a float32 frame matrix plus a few widened blocks: 1.8 F32; a float64
        # matrix took 2.5 F32
        monkeypatch.setattr(gmm_mod, "EM_BLOCK", 256)
        disk, _ = stored
        _, peak = _peak(lambda: pipeline.train_ubm(disk, PipelineConfig(ubm_components=32)))
        assert peak < 2.15 * _stored_bytes(disk), (peak / _stored_bytes(disk))

    def test_train_phonetic_gmms_stored(self, stored, small_models):
        # every utterance's frames plus one state's: 1.7 F32; float64 frames
        # took 2.55 F32
        disk, _ = stored
        aligns = {u.utt_id: neural_aligner.mlp_posteriors(small_models.mlp, u.feats)
                  for u in _enroll(disk)}
        cfg = PipelineConfig(pgmm_components=2, pgmm_em_iterations=1)
        _, peak = _peak(lambda: pipeline.train_phonetic_gmms(
            disk, cfg, lambda utt: aligns[utt.utt_id]))
        assert peak < 2.1 * _stored_bytes(disk), (peak / _stored_bytes(disk))

    def test_linear_llr(self, small_corpus, small_models):
        # the weights overwrite the roster's means, so only one speaker's
        # quotient is new: 1.17 models; stacking new weights took S + 2.2
        system = pipeline.SpeakerSystem("gmm-hmm", small_models)
        speakers = pipeline.enroll_speakers(small_corpus, system)
        one = system.background.means.nbytes
        # made before tracing; the warm-up call consumes the last one
        rosters = [roster_copy(speakers) for _ in range(2)]
        measured, means = rosters[0], rosters[0].means
        scorer, peak = _peak(lambda: LinearLlr(rosters.pop(), system.background))
        assert peak < 1.5 * one, (peak / one)
        assert scorer.weights.base is means and len(measured) == 0

    def test_enroll_and_save_speakers(self, small_corpus, small_models, tmp_path):
        # one (speakers, M, D) array, written as it is, plus one short
        # utterance's temporaries: S + 6.05 models; a dict of models stacked
        # again to be written took 2S + 2.8
        system = pipeline.SpeakerSystem("ubm", small_models)
        one = system.background.means.nbytes
        utt = _enroll(small_corpus)[0]
        short = types.SimpleNamespace(feats=FeatureSequence(utt.feats.frames[:30],
                                                            utt.feats.kind),
                                      content=utt.content)
        many = types.SimpleNamespace(speakers=[f"s{k:02d}" for k in range(48)],
                                     enrollment=lambda spk: [short])

        def enroll_and_save():
            formats.save_model(tmp_path / "spk.dvmd", pipeline.enroll_speakers(many, system))

        _, peak = _peak(enroll_and_save)
        assert peak < (48 + 8) * one, (peak / one)
