"""Whole-word left-to-right HMMs over ten digits plus silence.

Each word has 3 emitting states with diagonal-GMM emissions and a
self-loop/forward transition pair; global state indices run word-major,
so digit d owns states 3d..3d+2 and silence owns 30..32.  The 33 state GMMs
are the rows of one stacked ``StateMixtures`` block, so the digit states
are its rows 0..29, as they are a phonetic GMM's.  Provides
transcription-graph compilation, Viterbi and forward-backward alignment
(in the log domain), and flat-start Baum-Welch training with mixture growth.
A compiled graph is topology only, built from the prompt and the silence
policy, so one graph serves any model.  An alignment is one emission step
(``node_loglikes`` for state GMMs, ``hybrid_loglikes`` for classifier
posteriors) then one decoder (``fb_align`` or ``viterbi_align``).  A state
alignment is a plain float64 (T, 33) array of per-frame state posteriors,
whichever aligner produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gmm as gmm_mod
from .errors import DigitsvError, UnalignableUtterance
from .features import FeatureKind, FeatureSequence
from .gmm import VARIANCE_FLOOR, StateMixtures

WORDS = ("0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "sil")
STATES_PER_WORD = 3
N_STATES = len(WORDS) * STATES_PER_WORD  # 33
SILENCE_WORD = 10
DIGIT_STATES = tuple(range(SILENCE_WORD * STATES_PER_WORD))  # 0..29

SILENCE_POLICIES = ("none", "ends_only", "optional_between")

_LOG_ZERO = -np.inf


@dataclass
class HmmSet(StateMixtures):
    """The 33 state GMMs as stacked rows, plus per-state self-loop probabilities."""

    self_loop: np.ndarray  # (33,)

    def __post_init__(self):
        super().__post_init__()
        if self.weights.shape[0] != N_STATES:
            raise ValueError(f"need {N_STATES} state models, got {self.weights.shape[0]}")
        self.self_loop = np.asarray(self.self_loop, dtype=np.float64)
        if self.self_loop.shape != (N_STATES,):
            raise ValueError("self_loop must have one entry per state")
        if np.any(self.self_loop <= 0) or np.any(self.self_loop >= 1):
            raise ValueError("self-loop probabilities must lie strictly inside (0, 1)")


def word_states(word_index: int) -> range:
    return range(word_index * STATES_PER_WORD, (word_index + 1) * STATES_PER_WORD)


@dataclass
class StateGraph:
    """Topology of a prompt's left-to-right state graph; it binds no model.

    Node ``j`` emits from global state ``states[j]``; self-loops are
    implicit.  Cross arcs come from up to two predecessors, ``pred[:, j]``
    (lower node first, valid where ``pred_ok[:, j]``), and go to up to two
    successors, ``succ[:, i]`` (valid where ``succ_ok[:, i]``); ``n_succ[i]``
    counts them, and a node's forward probability is split uniformly over
    them.  Missing arcs hold node 0.  Entry is node 0 and exit is the last
    node.  The ``HmmSet`` is passed at alignment time.
    """

    states: np.ndarray    # (L,) global state indices
    optional: np.ndarray  # (L,) True for skippable silence nodes
    pred: np.ndarray      # (2, L) node indices
    pred_ok: np.ndarray   # (2, L) bool
    succ: np.ndarray      # (2, L) node indices
    succ_ok: np.ndarray   # (2, L) bool
    n_succ: np.ndarray    # (L,)
    min_frames: int


def compile_graph(transcription: str, silence_policy: str = "optional_between") -> StateGraph:
    """Compile a digit string into a left-to-right state graph."""
    if silence_policy not in SILENCE_POLICIES:
        raise ValueError(f"unknown silence policy {silence_policy!r}")
    if not transcription:
        raise DigitsvError("empty transcription")
    word_idx = []
    for ch in transcription:
        if ch not in WORDS[:10]:
            raise DigitsvError(f"token {ch!r} is not a digit")
        word_idx.append(int(ch))

    blocks: list[tuple[int, bool]] = []  # (word index, optional?)
    if silence_policy == "none":
        blocks = [(w, False) for w in word_idx]
    else:
        blocks.append((SILENCE_WORD, False))
        for k, w in enumerate(word_idx):
            if k > 0 and silence_policy == "optional_between":
                blocks.append((SILENCE_WORD, True))
            blocks.append((w, False))
        blocks.append((SILENCE_WORD, False))

    states = np.array([s for w, _ in blocks for s in word_states(w)], dtype=np.int64)
    optional = np.repeat([opt for _, opt in blocks], STATES_PER_WORD)
    n = len(states)
    nodes = np.arange(n)
    # every node but the entry follows the node before it; the first node
    # after an optional block may also follow the last node before that block
    skip = np.zeros(n, dtype=bool)
    skip[1:] = (nodes[1:] % STATES_PER_WORD == 0) & optional[:-1]
    hop = STATES_PER_WORD + 1
    pred_ok = np.stack([nodes > 0, skip])
    pred = np.where(pred_ok, [np.where(skip, nodes - hop, nodes - 1), nodes - 1], 0)
    succ_ok = np.stack([nodes < n - 1, np.zeros(n, dtype=bool)])
    succ_ok[1, :-hop] = skip[hop:]
    succ = np.where(succ_ok, [nodes + 1, nodes + hop], 0)
    return StateGraph(
        states=states,
        optional=optional,
        pred=pred,
        pred_ok=pred_ok,
        succ=succ,
        succ_ok=succ_ok,
        n_succ=succ_ok.sum(axis=0),
        min_frames=int((~optional).sum()),
    )


def node_loglikes(graph: StateGraph, feats: FeatureSequence, hmms: HmmSet) -> np.ndarray:
    """(T, L) GMM emission log-likelihoods of MFCC60 features, one column per graph node."""
    if feats.kind != FeatureKind.MFCC60:
        raise DigitsvError(f"alignment expects MFCC60 features, got {feats.kind.value}")
    return gmm_mod.log_likelihoods(hmms, feats.frames)[:, graph.states]


def hybrid_loglikes(graph: StateGraph, state_posteriors: np.ndarray,
                    priors: np.ndarray) -> np.ndarray:
    """(T, L) scaled-likelihood emissions from (T, 33) classifier posteriors and state priors."""
    priors = np.asarray(priors, dtype=np.float64)
    if priors.shape != (N_STATES,):
        raise DigitsvError("need one prior per global state")
    post = np.maximum(state_posteriors, 1e-30)
    scores = np.log(post) - np.log(np.maximum(priors, 1e-30))
    return scores[:, graph.states]


def _arc_arrays(graph: StateGraph, self_loop: np.ndarray):
    """Arc log-probabilities of ``graph`` under per-state ``self_loop`` probabilities.

    Returns per-node self-loop log-probs plus the two incoming cross arcs
    (pred index / log-prob, missing = index 0 with -inf prob) and the
    mirrored outgoing arcs.  Cross arcs carry the source's forward
    probability split uniformly over its successors.
    """
    a = self_loop[graph.states]
    leave = np.log1p(-a) - np.log(np.maximum(graph.n_succ, 1))
    into = np.where(graph.pred_ok, leave[graph.pred], _LOG_ZERO)
    out = np.where(graph.succ_ok, leave, _LOG_ZERO)
    return (np.log(a), (graph.pred[0], into[0], graph.pred[1], into[1]),
            (graph.succ[0], out[0], graph.succ[1], out[1]))


def _viterbi_nodes(graph: StateGraph, loglikes: np.ndarray,
                   self_loop: np.ndarray) -> tuple[np.ndarray, float]:
    """Best node path and its joint log-probability.

    Ties break toward the lower-index predecessor so alignments are
    deterministic.
    """
    t_max, n_nodes = loglikes.shape
    if t_max < graph.min_frames:
        raise DigitsvError(f"{t_max} frames cannot traverse a graph needing {graph.min_frames}")
    loop, (p1, a1, p2, a2), _ = _arc_arrays(graph, self_loop)
    nodes = np.arange(n_nodes)
    delta = np.full(n_nodes, _LOG_ZERO)
    delta[0] = loglikes[0, 0]
    back = np.zeros((t_max, n_nodes), dtype=np.int64)
    for t in range(1, t_max):
        # candidates evaluated lowest predecessor first; strict > keeps ties low
        best = delta[p1] + a1
        best_p = p1.copy()
        cand = delta[p2] + a2
        better = cand > best
        best = np.where(better, cand, best)
        best_p = np.where(better, p2, best_p)
        cand = delta + loop
        better = cand > best
        best = np.where(better, cand, best)
        best_p = np.where(better, nodes, best_p)
        delta = best + loglikes[t]
        back[t] = best_p
    path = np.empty(t_max, dtype=np.int64)
    path[-1] = n_nodes - 1
    for t in range(t_max - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, float(delta[-1])


def _forward_backward_nodes(graph: StateGraph, loglikes: np.ndarray, self_loop: np.ndarray):
    """Node occupation posteriors (T, L), total log-probability, alpha, beta."""
    t_max, n_nodes = loglikes.shape
    if t_max < graph.min_frames:
        raise DigitsvError(f"{t_max} frames cannot traverse a graph needing {graph.min_frames}")
    loop, (p1, a1, p2, a2), (s1, b1, s2, b2) = _arc_arrays(graph, self_loop)

    alpha = np.full((t_max, n_nodes), _LOG_ZERO)
    alpha[0, 0] = loglikes[0, 0]
    for t in range(1, t_max):
        prev = alpha[t - 1]
        acc = np.logaddexp(prev + loop, prev[p1] + a1)
        acc = np.logaddexp(acc, prev[p2] + a2)
        alpha[t] = acc + loglikes[t]

    beta = np.full((t_max, n_nodes), _LOG_ZERO)
    beta[-1, n_nodes - 1] = 0.0
    for t in range(t_max - 2, -1, -1):
        nxt = beta[t + 1] + loglikes[t + 1]
        acc = np.logaddexp(loop + nxt, b1 + nxt[s1])
        beta[t] = np.logaddexp(acc, b2 + nxt[s2])

    total = float(alpha[-1, n_nodes - 1])
    if not np.isfinite(total):
        raise DigitsvError("no valid path through the graph")
    gamma = np.exp(alpha + beta - total)
    return gamma, total, alpha, beta


def _nodes_to_states(graph: StateGraph, gamma_nodes: np.ndarray) -> np.ndarray:
    post = np.zeros((gamma_nodes.shape[0], N_STATES))
    np.add.at(post.T, graph.states, gamma_nodes.T)
    return post


def viterbi_align(graph: StateGraph, loglikes: np.ndarray, hmms: HmmSet) -> np.ndarray:
    """Hard alignment: the most likely global state per frame under node ``loglikes``."""
    path, _ = _viterbi_nodes(graph, loglikes, hmms.self_loop)
    return graph.states[path]


def fb_align(graph: StateGraph, loglikes: np.ndarray, hmms: HmmSet) -> np.ndarray:
    """Soft alignment: (T, 33) forward-backward state occupancies under node ``loglikes``."""
    gamma, _, _, _ = _forward_backward_nodes(graph, loglikes, hmms.self_loop)
    return _nodes_to_states(graph, gamma)


def path_to_alignment(path: np.ndarray) -> np.ndarray:
    """Turn a hard state path into (T, 33) 0/1 rows."""
    post = np.zeros((len(path), N_STATES))
    post[np.arange(len(path)), path] = 1.0
    return post


# training schedule: passes at one component, then per doubling of the mixtures
INIT_PASSES = 4
PASSES_PER_SIZE = 2
SELF_LOOP_INIT = 0.6
TRANSITION_FLOOR = 1e-3  # self-loops stay inside [floor, 1 - floor]


def _flat_start(corpus, graphs, dim, floor, global_mean, global_var) -> HmmSet:
    """Uniform segmentation over each utterance's mandatory nodes.

    A state with fewer than 2 frames starts from the global mean and variance.
    """
    sums = np.zeros((N_STATES, dim))
    sqs = np.zeros((N_STATES, dim))
    counts = np.zeros(N_STATES)
    for (feats, _), graph in zip(corpus, graphs):
        mandatory = graph.states[~graph.optional]
        t = feats.n_frames
        x = np.asarray(feats.frames, dtype=np.float64)
        bounds = np.floor(np.arange(len(mandatory) + 1) * t / len(mandatory)).astype(int)
        for k, s in enumerate(mandatory):
            seg = x[bounds[k]:bounds[k + 1]]
            if seg.shape[0]:
                sums[s] += seg.sum(axis=0)
                sqs[s] += (seg ** 2).sum(axis=0)
                counts[s] += seg.shape[0]
    enough = (counts >= 2)[:, None]
    n = np.maximum(counts, 1.0)[:, None]  # counts itself wherever enough
    means = np.where(enough, sums / n, global_mean)
    variances = np.maximum(np.where(enough, sqs / n - means ** 2, global_var), floor)
    return HmmSet(np.ones((N_STATES, 1)), means[:, None], variances[:, None],
                  np.full(N_STATES, SELF_LOOP_INIT))


def _realign_pass(hmms: HmmSet, corpus, graphs, floor):
    """One Baum-Welch realignment pass.

    Soft forward-backward occupation drives the emission and transition
    updates (the EM objective is the total data log-likelihood); the corpus
    Viterbi log-likelihood is computed from the same emission scores for
    the training log.  One kernel call per utterance gives the emissions and
    the component posteriors, which the state occupancy weights into the
    shared ``gmm.EmAccumulator``.
    """
    accum = gmm_mod.EmAccumulator(hmms)
    self_mass = np.zeros(N_STATES)
    cross_mass = np.zeros(N_STATES)
    total_fb = 0.0
    total_viterbi = 0.0
    for (feats, _), graph in zip(corpus, graphs):
        x = np.asarray(feats.frames, dtype=np.float64)  # one utterance widened at a time
        state_ll, post = gmm_mod.loglikes_and_posteriors(hmms, x)
        loglikes = state_ll[:, graph.states]
        gamma, fb_ll, alpha, beta = _forward_backward_nodes(graph, loglikes, hmms.self_loop)
        _, vit_ll = _viterbi_nodes(graph, loglikes, hmms.self_loop)
        total_fb += fb_ll
        total_viterbi += vit_ll

        loop = np.log(hmms.self_loop[graph.states])
        # expected self-transition mass per node; leaving mass is the rest
        xi_self = np.exp(alpha[:-1] + loop + loglikes[1:] + beta[1:] - fb_ll)
        node_self = xi_self.sum(axis=0)
        node_cross = np.maximum(gamma[:-1].sum(axis=0) - node_self, 0.0)
        np.add.at(self_mass, graph.states, node_self)
        np.add.at(cross_mass, graph.states, node_cross)

        occ = _nodes_to_states(graph, gamma)
        occ[occ <= 1e-12] = 0.0
        accum.add(state_ll, post, occ, x)
        del post, x  # post is weighted in place; both are freed before the next utterance's

    leaving = self_mass + cross_mass
    loop = np.where(leaving > 0, self_mass / np.maximum(leaving, 1e-30), hmms.self_loop)
    loop = np.clip(loop, TRANSITION_FLOOR, 1.0 - TRANSITION_FLOOR)
    return HmmSet(*accum.update(hmms, floor), loop), total_fb, total_viterbi


def train_hmm_set(corpus, target_components: int = 16,
                  silence_policy: str = "optional_between") -> HmmSet:
    """Flat start, iterative forward-backward realignment, and mixture growth.

    ``corpus`` is a list of (FeatureSequence, transcription) pairs; every
    digit 0..9 must occur somewhere.  The returned set's ``training_log``
    records per-pass rows with the total (``fb_ll``, the EM objective) and
    best-path (``viterbi_ll``) corpus log-likelihoods; within a fixed
    mixture size both are nondecreasing.  Training draws no random numbers.
    """
    covered = set()
    for _, text in corpus:
        covered.update(text)
    missing = [d for d in WORDS[:10] if d not in covered]
    if missing:
        raise DigitsvError(f"digits {missing} never occur in the corpus")

    global_mean, global_var = gmm_mod.column_mean_var(lambda: (f.frames for f, _ in corpus))
    dim = global_mean.shape[0]
    floor = np.maximum(VARIANCE_FLOOR * global_var, 1e-10)

    # each graph is compiled once and serves every pass; validate alignability up front
    graphs = []
    for idx, (feats, text) in enumerate(corpus):
        graph = compile_graph(text, silence_policy)
        if feats.n_frames < graph.min_frames:
            raise UnalignableUtterance(idx, f"utterance {idx} has {feats.n_frames} frames, "
                                            f"needs {graph.min_frames}")
        graphs.append(graph)

    hmms = _flat_start(corpus, graphs, dim, floor, global_mean, global_var)
    log = []
    size = 1
    passes = INIT_PASSES
    while True:
        for k in range(passes):
            hmms, fb_ll, vit_ll = _realign_pass(hmms, corpus, graphs, floor)
            log.append({"n_components": size, "pass": k,
                        "fb_ll": fb_ll, "viterbi_ll": vit_ll})
        if size >= target_components:
            break
        hmms = HmmSet(*gmm_mod.split_components(hmms), hmms.self_loop)
        size *= 2
        passes = PASSES_PER_SIZE

    hmms.training_log = log
    return hmms
