import numpy as np
import pytest

from conftest import enumeration_marginals, make_hmm_set, mfcc_feats, state_gmm
from digitsv.errors import DigitsvError, UnalignableUtterance
from digitsv.features import FeatureKind, FeatureSequence
from digitsv.hmm import (
    N_STATES,
    HmmSet,
    SILENCE_POLICIES,
    SILENCE_WORD,
    _arc_arrays,
    compile_graph,
    fb_align,
    hybrid_loglikes,
    node_loglikes,
    path_to_alignment,
    train_hmm_set,
    viterbi_align,
    word_states,
)
from digitsv.pgmm import mixture_posteriors


class TestCompileGraph:
    def test_word_major_indexing(self):
        graph = compile_graph("7", "none")
        np.testing.assert_array_equal(graph.states, [21, 22, 23])

    def test_min_length_without_silence(self):
        graph = compile_graph("12345", "none")
        assert graph.min_frames == 15

    def test_ends_only_adds_mandatory_silence(self):
        graph = compile_graph("12", "ends_only")
        assert graph.min_frames == 12
        np.testing.assert_array_equal(graph.states[:3], [30, 31, 32])
        np.testing.assert_array_equal(graph.states[-3:], [30, 31, 32])

    def test_optional_between_does_not_raise_min_length(self):
        graph = compile_graph("12", "optional_between")
        assert graph.min_frames == 12
        assert graph.optional.sum() == 3  # one skippable silence block

    def test_unknown_token(self):
        with pytest.raises(DigitsvError, match="token 'a' is not a digit"):
            compile_graph("1a3", "none")

    def test_deterministic(self):
        a = compile_graph("908", "optional_between")
        b = compile_graph("908", "optional_between")
        for name in ("states", "optional", "pred", "pred_ok", "succ", "succ_ok", "n_succ"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.min_frames == b.min_frames


def reference_arc_arrays(transcription, silence_policy, self_loop):
    """Arc tables built node by node from per-node predecessor lists (the oracle).

    This is the construction the compiled index tables replaced: a
    ``cross_preds`` tuple per node from the block structure, then per-node
    loops filling the incoming and the mirrored outgoing arcs.
    """
    blocks = [(SILENCE_WORD, False)] if silence_policy != "none" else []
    for k, ch in enumerate(transcription):
        if k > 0 and silence_policy == "optional_between":
            blocks.append((SILENCE_WORD, True))
        blocks.append((int(ch), False))
    if silence_policy != "none":
        blocks.append((SILENCE_WORD, False))
    states, block_of_node = [], []
    for b, (w, _) in enumerate(blocks):
        for s in word_states(w):
            states.append(s)
            block_of_node.append(b)
    states = np.array(states, dtype=np.int64)
    first_node, last_node = {}, {}
    for j, b in enumerate(block_of_node):
        first_node.setdefault(b, j)
        last_node[b] = j
    cross_preds = [[] for _ in states]
    n_succ = np.zeros(len(states), dtype=np.int64)
    for j in range(1, len(states)):
        b = block_of_node[j]
        if j != first_node[b]:
            cross_preds[j].append(j - 1)
            n_succ[j - 1] += 1
        else:
            prev = b - 1
            cross_preds[j].append(last_node[prev])
            n_succ[last_node[prev]] += 1
            if blocks[prev][1] and prev > 0:
                cross_preds[j].append(last_node[prev - 1])
                n_succ[last_node[prev - 1]] += 1
    cross_preds = tuple(tuple(sorted(p)) for p in cross_preds)

    loop = np.log(self_loop[states])
    fwd = np.log1p(-self_loop[states])
    n = len(states)
    p1 = np.zeros(n, dtype=np.int64)
    a1 = np.full(n, -np.inf)
    p2 = np.zeros(n, dtype=np.int64)
    a2 = np.full(n, -np.inf)
    for j in range(n):
        preds = cross_preds[j]
        if len(preds) >= 1:
            p1[j] = preds[0]
            a1[j] = fwd[preds[0]] - np.log(n_succ[preds[0]])
        if len(preds) == 2:
            p2[j] = preds[1]
            a2[j] = fwd[preds[1]] - np.log(n_succ[preds[1]])
    s1 = np.zeros(n, dtype=np.int64)
    b1 = np.full(n, -np.inf)
    s2 = np.zeros(n, dtype=np.int64)
    b2 = np.full(n, -np.inf)
    for j in range(n):
        for p, arc in ((p1[j], a1[j]), (p2[j], a2[j])):
            if arc == -np.inf:
                continue
            if b1[p] == -np.inf:
                s1[p], b1[p] = j, arc
            else:
                s2[p], b2[p] = j, arc
    return states, n_succ, (loop, (p1, a1, p2, a2), (s1, b1, s2, b2))


class TestArcTables:
    @pytest.mark.parametrize("policy", SILENCE_POLICIES)
    def test_equal_to_per_node_reference(self, policy):
        rng = np.random.default_rng(sum(map(ord, policy)))
        for _ in range(140):
            prompt = "".join(str(d) for d in rng.integers(0, 10, int(rng.integers(1, 8))))
            self_loop = rng.uniform(0.01, 0.99, N_STATES)
            graph = compile_graph(prompt, policy)
            states, n_succ, want = reference_arc_arrays(prompt, policy, self_loop)
            np.testing.assert_array_equal(graph.states, states)
            np.testing.assert_array_equal(graph.n_succ, n_succ)
            got = _arc_arrays(graph, self_loop)
            np.testing.assert_array_equal(got[0], want[0])
            for got_part, want_part in zip(got[1:], want[1:]):
                for g, w in zip(got_part, want_part):
                    np.testing.assert_array_equal(g, w)


def single_digit_instance(seed, t_max=None, dim=1, n_components=1):
    """Random 3-state instance over the word "5" with random parameters."""
    rng = np.random.default_rng(seed)
    t_max = t_max or int(rng.integers(3, 7))
    hmms = make_hmm_set(dim=dim, n_components=n_components, rng=rng, spread=2.0)
    hmms.self_loop = rng.uniform(0.2, 0.8, N_STATES)
    graph = compile_graph("5", "none")
    frames = 2.0 * rng.standard_normal((t_max, dim))
    feats = FeatureSequence(np.tile(frames, (1, 60 // dim)), FeatureKind.MFCC60)
    # scalar emission log-likelihoods for the oracle (on the tiled features)
    from conftest import scalar_gmm_loglike

    states = [15, 16, 17]
    loglikes = np.array([
        [scalar_gmm_loglike(state_gmm(hmms, s), feats.frames[t]) for s in states]
        for t in range(t_max)
    ])
    return hmms, graph, feats, loglikes


class TestViterbi:
    def test_single_state_path(self):
        # a one-word graph with zero-variance-free emissions still has a
        # unique path when only 3 frames are given: one per state
        hmms = make_hmm_set()
        graph = compile_graph("4", "none")
        feats = mfcc_feats(np.zeros((3, 2)))
        path = viterbi_align(graph, node_loglikes(graph, feats, hmms), hmms)
        np.testing.assert_array_equal(path, [12, 13, 14])

    def test_matches_enumerated_argmax(self):
        for seed in range(30):
            hmms, graph, feats, loglikes = single_digit_instance(seed)
            _, best_path, best_lp, _ = enumeration_marginals(
                loglikes, hmms.self_loop[[15, 16, 17]]
            )
            got = viterbi_align(graph, node_loglikes(graph, feats, hmms), hmms)
            np.testing.assert_array_equal(got, np.array([15, 16, 17])[best_path])

    def test_too_short(self):
        hmms = make_hmm_set()
        graph = compile_graph("12345", "none")
        with pytest.raises(DigitsvError, match="14 frames cannot traverse a graph"):
            viterbi_align(graph, node_loglikes(graph, mfcc_feats(np.zeros((14, 2))), hmms),
                          hmms)

    def test_wrong_feature_kind(self):
        hmms = make_hmm_set()
        graph = compile_graph("1", "none")
        feats = FeatureSequence(np.zeros((5, 120)), FeatureKind.FBANK120)
        with pytest.raises(DigitsvError, match="alignment expects MFCC60 features"):
            node_loglikes(graph, feats, hmms)


class TestForwardBackward:
    def test_rows_sum_to_one(self):
        hmms, graph, feats, _ = single_digit_instance(1, t_max=6)
        align = fb_align(graph, node_loglikes(graph, feats, hmms), hmms)
        np.testing.assert_allclose(align.sum(axis=1), 1.0, atol=1e-6)

    def test_no_mass_outside_graph(self):
        hmms, graph, feats, _ = single_digit_instance(2, t_max=5)
        align = fb_align(graph, node_loglikes(graph, feats, hmms), hmms)
        outside = [s for s in range(N_STATES) if s not in (15, 16, 17)]
        assert np.all(align[:, outside] == 0.0)

    def test_matches_path_enumeration(self):
        for seed in range(30):
            hmms, graph, feats, loglikes = single_digit_instance(seed + 100)
            marg, _, _, _ = enumeration_marginals(loglikes, hmms.self_loop[[15, 16, 17]])
            align = fb_align(graph, node_loglikes(graph, feats, hmms), hmms)
            np.testing.assert_allclose(
                align[:, [15, 16, 17]], marg, atol=1e-10
            )

    def test_viterbi_mass_inside_fb_support(self):
        hmms, graph, feats, _ = single_digit_instance(3, t_max=6)
        hard = path_to_alignment(viterbi_align(graph, node_loglikes(graph, feats, hmms), hmms))
        soft = fb_align(graph, node_loglikes(graph, feats, hmms), hmms)
        chosen = hard > 0
        assert np.all(soft[chosen] > 0)

    def test_alignment_monotone(self):
        hmms, graph, feats, _ = single_digit_instance(4, t_max=6)
        path = viterbi_align(graph, node_loglikes(graph, feats, hmms), hmms)
        assert np.all(np.diff(path) >= 0)


class TestOptionalSilenceEnumeration:
    """Exhaustive-path oracle for the skip arc around an optional silence.

    The graph for "12" under optional_between is, by construction:
    silence(0-2), digit 1(3-5), optional silence(6-8), digit 2(9-11),
    silence(12-14); node 5 branches to node 6 or node 9 with the forward
    probability split evenly.
    """

    GLOBAL = [30, 31, 32, 3, 4, 5, 30, 31, 32, 6, 7, 8, 30, 31, 32]

    def _paths(self, t_max):
        succs = {j: [j + 1] for j in range(14)}
        succs[5] = [6, 9]
        succs[14] = []
        out = []

        def walk(node, path):
            if len(path) == t_max:
                if node == 14:
                    out.append(list(path))
                return
            for nxt in [node] + succs[node]:
                path.append(nxt)
                walk(nxt, path)
                path.pop()

        walk(0, [0])
        return out

    def _score(self, path, loglikes, self_loop):
        logp = loglikes[0][path[0]]
        for t in range(1, len(path)):
            a, b = path[t - 1], path[t]
            if a == b:
                trans = self_loop[a]
            elif a == 5:
                trans = (1.0 - self_loop[a]) / 2.0  # branch point
            else:
                trans = 1.0 - self_loop[a]
            logp += np.log(trans) + loglikes[t][b]
        return logp

    @pytest.mark.parametrize("t_max", [12, 13, 15])
    def test_fb_and_viterbi_agree_with_enumeration(self, t_max):
        rng = np.random.default_rng(t_max)
        hmms = make_hmm_set(dim=1, rng=rng, spread=1.5)
        hmms.self_loop = rng.uniform(0.3, 0.7, N_STATES)
        graph = compile_graph("12", "optional_between")
        np.testing.assert_array_equal(graph.states, self.GLOBAL)
        frames = 2.0 * rng.standard_normal((t_max, 1))
        feats = FeatureSequence(np.tile(frames, (1, 60)), FeatureKind.MFCC60)
        from conftest import scalar_gmm_loglike

        node_ll = np.array([
            [scalar_gmm_loglike(state_gmm(hmms, s), feats.frames[t]) for s in self.GLOBAL]
            for t in range(t_max)
        ])
        loop = hmms.self_loop[self.GLOBAL]
        paths = self._paths(t_max)
        assert paths, "enumeration found no valid path"
        logps = np.array([self._score(p, node_ll, loop) for p in paths])
        total = logps.max() + np.log(np.exp(logps - logps.max()).sum())
        marg = np.zeros((t_max, N_STATES))
        for logp, path in zip(logps, paths):
            w = np.exp(logp - total)
            for t, node in enumerate(path):
                marg[t, self.GLOBAL[node]] += w

        align = fb_align(graph, node_loglikes(graph, feats, hmms), hmms)
        np.testing.assert_allclose(align, marg, atol=1e-10)

        best = paths[int(np.argmax(logps))]
        got = viterbi_align(graph, node_loglikes(graph, feats, hmms), hmms)
        np.testing.assert_array_equal(got, np.array(self.GLOBAL)[best])


class TestHybridAlignment:
    @pytest.mark.parametrize("seed", range(10))
    def test_match_path_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        t_max = int(rng.integers(3, 7))
        hmms = make_hmm_set()
        hmms.self_loop = rng.uniform(0.2, 0.8, N_STATES)
        graph = compile_graph("5", "none")
        post = rng.random((t_max, N_STATES))
        post /= post.sum(axis=1, keepdims=True)
        priors = rng.random(N_STATES)
        priors /= priors.sum()
        states = [15, 16, 17]
        loglikes = np.log(post[:, states]) - np.log(priors[states])
        marg, best_path, _, _ = enumeration_marginals(loglikes, hmms.self_loop[states])
        emissions = hybrid_loglikes(graph, post, priors)
        got = fb_align(graph, emissions, hmms)
        np.testing.assert_allclose(got[:, states], marg, atol=1e-10)
        np.testing.assert_array_equal(viterbi_align(graph, emissions, hmms),
                                      np.array(states)[best_path])

    def test_fb_hybrid_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        hmms = make_hmm_set()
        graph = compile_graph("3", "none")
        post = rng.random((6, N_STATES))
        post /= post.sum(axis=1, keepdims=True)
        priors = np.full(N_STATES, 1.0 / N_STATES)
        out = fb_align(graph, hybrid_loglikes(graph, post, priors), hmms)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


class TestTrainHmmSet:
    def test_missing_digit_coverage(self):
        feats = mfcc_feats(np.zeros((40, 2)))
        with pytest.raises(DigitsvError, match="never occur in the corpus"):
            train_hmm_set([(feats, "012345678")], target_components=1)

    def test_unalignable_utterance_reported(self):
        corpus = [(mfcc_feats(np.random.default_rng(0).standard_normal((4, 2))),
                   "0123456789")]
        with pytest.raises(UnalignableUtterance) as err:
            train_hmm_set(corpus, target_components=1)
        assert err.value.utterance_id == 0

    def test_training_objective_nondecreasing(self, small_corpus, small_models):
        log = small_models.hmms.training_log
        by_size = {}
        for row in log:
            by_size.setdefault(row["n_components"], []).append(row["fb_ll"])
        for lls in by_size.values():
            diffs = np.diff(lls)
            assert np.all(diffs >= -1e-6 * np.abs(np.array(lls[:-1])))

    def test_viterbi_ll_nondecreasing(self, small_models):
        by_size = {}
        for row in small_models.hmms.training_log:
            by_size.setdefault(row["n_components"], []).append(row["viterbi_ll"])
        for lls in by_size.values():
            diffs = np.diff(lls)
            assert np.all(diffs >= -1e-6 * np.abs(np.array(lls[:-1])))

    def test_model_shape(self, small_models):
        hmms = small_models.hmms
        assert hmms.weights.shape == (33, 4)
        assert hmms.n_components == 4


class TestMixturePosteriors:
    def test_product_rule_hand_case(self):
        # two active states, two components each, hand-checkable numbers
        hmms = make_hmm_set(dim=1, n_components=2)
        post = np.zeros((1, N_STATES))
        post[0, 0], post[0, 1] = 0.4, 0.6
        feats = mfcc_feats(np.array([[0.5]]))
        mp = mixture_posteriors(hmms, post, feats, prune=0.0)
        assert abs(mp[0].sum() - 1.0) < 1e-6
        from digitsv.gmm import loglikes_and_posteriors

        w0 = loglikes_and_posteriors(state_gmm(hmms, 0), feats.frames[:1])[1][0]
        np.testing.assert_allclose(mp[0, 0:2], 0.4 * w0, atol=1e-12)

    def test_identical_components_split_half(self):
        # every state's one component, twice over
        one = make_hmm_set(dim=1, n_components=1)
        hmms = HmmSet(np.full((N_STATES, 2), 0.5), np.repeat(one.means, 2, axis=1),
                      np.repeat(one.variances, 2, axis=1), one.self_loop)
        post = np.zeros((1, N_STATES))
        post[0, 0] = 1.0
        mp = mixture_posteriors(hmms, post, mfcc_feats(np.array([[0.1]])), prune=0.0)
        np.testing.assert_allclose(mp[0, 0:2], [0.5, 0.5], atol=1e-12)

