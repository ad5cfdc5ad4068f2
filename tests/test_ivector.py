import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import plda_score
from digitsv import ivector
from digitsv.errors import DigitsvError
from digitsv.ivector import (
    PldaScorer,
    TvModel,
    _lda_projection,
    extract_ivector,
    length_normalize,
    plda_log_likelihood,
    train_backend,
    train_tv,
)
from digitsv.pgmm import Background, SuffStats


def toy_background(m=3, dim=2, seed=0, model_id="bg"):
    rng = np.random.default_rng(seed)
    return Background(rng.standard_normal((m, dim)), 0.5 + rng.random((m, dim)), model_id)


def random_stats(background, seed=0, scale=3.0):
    rng = np.random.default_rng(seed)
    n = rng.random(background.n_mixtures) * 20 + 1
    f = scale * rng.standard_normal(background.means.shape) * np.sqrt(n)[:, None]
    return SuffStats(n, f, background.model_id)


class TestExtractIvector:
    def test_zero_stats_give_zero_vector(self):
        bg = toy_background()
        tv = TvModel(np.random.default_rng(1).standard_normal((6, 4)), bg)
        stats = SuffStats(np.zeros(3), np.zeros((3, 2)), "bg")
        np.testing.assert_array_equal(extract_ivector(stats, tv), np.zeros(4))

    def test_scalar_hand_case(self):
        # one mixture, D=1, R=1: (1 + T^2 N / v) w = T F / v with T=2, v=1, N=3, F=6
        bg = Background(np.zeros((1, 1)), np.ones((1, 1)), "bg")
        tv = TvModel(np.array([[2.0]]), bg)
        stats = SuffStats(np.array([3.0]), np.array([[6.0]]), "bg")
        assert abs(extract_ivector(stats, tv)[0] - 12.0 / 13.0) < 1e-12

    def test_linear_in_first_order_stats(self):
        bg = toy_background(seed=2)
        tv = TvModel(np.random.default_rng(3).standard_normal((6, 3)), bg)
        stats = random_stats(bg, seed=4)
        doubled = SuffStats(stats.n, 2.0 * stats.f, "bg")
        a = extract_ivector(stats, tv)
        b = extract_ivector(doubled, tv)
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-10)

    def test_matches_dense_gls_solve(self):
        # independent re-derivation with explicit block-diagonal matrices
        rng = np.random.default_rng(5)
        for trial in range(5):
            m, d, r = rng.integers(1, 5), rng.integers(1, 3), rng.integers(1, 4)
            bg = Background(rng.standard_normal((m, d)), 0.5 + rng.random((m, d)), "bg")
            tv = TvModel(rng.standard_normal((m * d, r)), bg)
            stats = random_stats(bg, seed=int(rng.integers(1e6)))
            n_diag = np.diag(np.repeat(stats.n, d))
            sigma_inv = np.diag(1.0 / bg.variances.reshape(-1))
            lhs = np.eye(r) + tv.matrix.T @ sigma_inv @ n_diag @ tv.matrix
            rhs = tv.matrix.T @ sigma_inv @ stats.f.reshape(-1)
            expected = np.linalg.solve(lhs, rhs)
            got = extract_ivector(stats, tv)
            np.testing.assert_allclose(got, expected, atol=1e-8)


    def test_statistics_of_another_background_rejected(self):
        # a TV model trained on one alignment source cannot extract another's
        bg = toy_background(seed=8, model_id="dnn")
        tv = TvModel(np.random.default_rng(1).standard_normal((6, 2)), bg)
        stats = random_stats(toy_background(seed=8, model_id="dnn-hmm"))
        with pytest.raises(DigitsvError, match="dnn-hmm"):
            extract_ivector(stats, tv)


class TestTrainTv:
    def test_auxiliary_nondecreasing(self):
        bg = toy_background(m=4, dim=3, seed=6)
        stats = [random_stats(bg, seed=k) for k in range(30)]
        tv = train_tv(lambda: stats, bg, rank=5, iterations=5, seed=0)
        diffs = np.diff(tv.training_log)
        assert np.all(diffs >= -1e-8 * np.abs(np.array(tv.training_log[:-1])))

    def test_rank_too_large(self):
        bg = toy_background(seed=7)
        stats = [random_stats(bg, seed=k) for k in range(10)]
        with pytest.raises(DigitsvError, match="cannot support rank 20"):
            train_tv(lambda: stats, bg, rank=20)

    def test_inconsistent_background(self):
        bg = toy_background(seed=8, model_id="a")
        other = toy_background(seed=9, model_id="b")
        stats = [random_stats(other, seed=k) for k in range(5)]
        with pytest.raises(DigitsvError, match="statistics anchored to 'b', not 'a'"):
            train_tv(lambda: stats, bg, rank=2)

    def test_determinism(self):
        bg = toy_background(seed=10)
        stats = [random_stats(bg, seed=k) for k in range(12)]
        a = train_tv(lambda: stats, bg, rank=3, iterations=3, seed=5)
        b = train_tv(lambda: stats, bg, rank=3, iterations=3, seed=5)
        np.testing.assert_array_equal(a.matrix, b.matrix)


def _dense_posterior(matrix, inv_var_flat, n_flat, f_flat):
    """Reference E-step of one utterance through the dense (M*D x R) product."""
    rank = matrix.shape[1]
    weighted = matrix * (n_flat * inv_var_flat)[:, None]
    precision = np.eye(rank) + weighted.T @ matrix
    rhs = matrix.T @ (f_flat * inv_var_flat)
    return precision, np.linalg.solve(precision, rhs), rhs


def dense_extract(stats, tv):
    inv_var = 1.0 / tv.background.variances.reshape(-1)
    n_flat = np.repeat(stats.n, tv.background.dim)
    return _dense_posterior(tv.matrix, inv_var, n_flat, stats.f.reshape(-1))[1]


def dense_train_tv(stats_list, background, rank, iterations, seed):
    """Reference EM: per-utterance dense posteriors, outer-product accumulators."""
    dim = background.dim
    inv_var = 1.0 / background.variances.reshape(-1)
    matrix = 0.1 * np.random.default_rng(seed).standard_normal(
        (background.n_mixtures * dim, rank))
    log = []
    for _ in range(iterations):
        acc_a = np.zeros((background.n_mixtures, rank, rank))
        acc_c = np.zeros_like(matrix)
        aux = 0.0
        for stats in stats_list:
            n_flat, f_flat = np.repeat(stats.n, dim), stats.f.reshape(-1)
            precision, mean, rhs = _dense_posterior(matrix, inv_var, n_flat, f_flat)
            aux += 0.5 * (mean @ rhs - np.linalg.slogdet(precision)[1])
            acc_c += np.outer(f_flat, mean)
            acc_a += stats.n[:, None, None] * (np.linalg.inv(precision) + np.outer(mean, mean))
        log.append(aux)
        for m in range(background.n_mixtures):
            rows = slice(m * dim, (m + 1) * dim)
            if np.trace(acc_a[m]) >= 1e-12:
                matrix[rows] = np.linalg.solve(acc_a[m], acc_c[rows].T).T
    return matrix, log


def in_memory_train_tv(stats_list, background, rank, iterations, seed):
    """Reference EM holding every utterance's first-order statistics for all iterations."""
    counts = np.array([st.n for st in stats_list])
    firsts = [st.f for st in stats_list]
    inv_var = 1.0 / background.variances.reshape(-1)
    matrix = np.random.default_rng(seed).standard_normal((background.means.size, rank))
    matrix *= 0.1
    dim, log = background.dim, []
    for _ in range(iterations):
        rhs = np.array([matrix.T @ (f.reshape(-1) * inv_var) for f in firsts])
        precision, mean = ivector._posterior(
            ivector._precision_blocks(matrix, inv_var, background.n_mixtures), counts, rhs)
        log.append(0.5 * float(np.sum(np.einsum("ur,ur->u", mean, rhs)
                                      - np.linalg.slogdet(precision)[1])))
        second = np.linalg.inv(precision)
        second += mean[:, :, None] * mean[:, None, :]
        acc_a = np.tensordot(counts, second, axes=(0, 0))
        for m in range(background.n_mixtures):
            if np.trace(acc_a[m]) < 1e-12:
                continue
            acc_c = mean.T @ np.array([f[m] for f in firsts])
            matrix[m * dim:(m + 1) * dim] = np.linalg.solve(acc_a[m], acc_c).T
    return matrix, log


def assert_relative(got, want, rtol=1e-10):
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestDenseOracle:
    """Precision blocks against the dense per-utterance E-step they replace."""

    @pytest.fixture(scope="class")
    def trained(self):
        bg = toy_background(m=12, dim=4, seed=12)
        stats = [random_stats(bg, seed=100 + k) for k in range(30)]
        for st in stats:   # mixture 5 never sees a frame: its block is skipped
            st.n[5], st.f[5] = 0.0, 0.0
        return bg, stats, train_tv(lambda: stats, bg, rank=5, iterations=4, seed=2)

    def test_train_tv_matches_dense(self, trained):
        bg, stats, tv = trained
        matrix, log = dense_train_tv(stats, bg, rank=5, iterations=4, seed=2)
        assert_relative(tv.matrix, matrix)
        assert_relative(tv.training_log, log)

    def test_extract_ivector_matches_dense(self, trained):
        _, stats, tv = trained
        for st in stats:
            assert_relative(extract_ivector(st, tv), dense_extract(st, tv))

    def test_matches_in_memory_em(self, trained):
        # the E-step is the in-memory one bit for bit; the streamed M-step sums
        # the first-order statistics in another order
        bg, stats, tv = trained
        matrix, log = in_memory_train_tv(stats, bg, rank=5, iterations=4, seed=2)
        assert tv.training_log[0] == log[0]
        assert_relative(tv.training_log, log, rtol=1e-12)
        assert_relative(tv.matrix, matrix, rtol=1e-12)

    def test_one_shot_iterator_rejected(self, trained):
        bg, stats, _ = trained
        once = iter(stats)
        with pytest.raises(DigitsvError, match="fresh iterable"):
            train_tv(lambda: once, bg, rank=5, iterations=2, seed=2)

    @pytest.mark.parametrize("later", [29, 31, 0])
    def test_later_pass_of_another_length_rejected(self, trained, later):
        bg, stats, _ = trained
        extra = random_stats(bg, seed=99)
        calls = 0

        def stream():
            nonlocal calls
            calls += 1
            return stats if calls == 1 else (stats + [extra])[:later]

        with pytest.raises(DigitsvError, match="the first 30"):
            train_tv(stream, bg, rank=5, iterations=2, seed=2)
        assert calls == 2   # it fails on the first read after the first pass

    def test_peak_memory_does_not_grow_with_utterances(self):
        # the benchmark's proportions: rank a third of dim or less, and
        # utterances x rank well below mixtures x dim
        bg = toy_background(m=256, dim=80, seed=13)
        rank = 24

        def peak(utterances):
            def stream():
                return (random_stats(bg, seed=k) for k in range(utterances))
            tracemalloc.start()
            try:
                train_tv(stream, bg, rank=rank, iterations=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_utterance = bg.n_mixtures * (2 * bg.dim + 1) * 8
        matrix_bytes = bg.means.size * rank * 8
        few, many = peak(40), peak(160)
        assert many < 1.1 * few, (few, many)
        assert many < one_utterance + 2 * matrix_bytes, (many, one_utterance, matrix_bytes)

    def test_batched_solve_matches_per_mixture_solves(self, monkeypatch):
        rng = np.random.default_rng(14)
        mixtures, dim, rank = 11, 3, 4
        factors = rng.standard_normal((mixtures, rank, rank))
        acc_a = factors @ factors.transpose(0, 2, 1) + rank * np.eye(rank)
        live = np.ones(mixtures, dtype=bool)
        live[[0, 6, 7]] = False
        blocks = rng.standard_normal((mixtures, dim, rank))
        want = blocks.copy()
        for m in np.flatnonzero(live):
            want[m] = np.linalg.solve(acc_a[m], blocks[m].T).T
        monkeypatch.setattr(ivector, "ROW_BLOCK", 4 * dim)  # batches of 4, 4 and 0 mixtures
        ivector._solve_live(acc_a, blocks, live)
        np.testing.assert_array_equal(blocks, want)

    def test_tv_matrix_must_match_background(self):
        with pytest.raises(ValueError):
            TvModel(np.zeros((5, 2)), toy_background())

    @pytest.mark.parametrize("edit", [lambda v: v[:, :-1], np.zeros_like, np.negative],
                             ids=["short", "zero", "negated"])
    def test_background_variances_must_fit(self, edit):
        bg = toy_background()
        bg.variances = edit(bg.variances)
        with pytest.raises(ValueError, match="variances"):
            TvModel(np.zeros((6, 2)), bg)


class TestLengthNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(length_normalize(np.array([3.0, 4.0])), [0.6, 0.8],
                                   atol=1e-12)

    def test_idempotent_on_unit_sphere(self):
        np.testing.assert_allclose(length_normalize(np.array([0.6, 0.8])), [0.6, 0.8],
                                   atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DigitsvError, match="cannot length-normalize the zero vector"):
            length_normalize(np.zeros(3))


def labeled_cloud(n_speakers=6, per_speaker=8, dim=5, spread=4.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = spread * rng.standard_normal((n_speakers, dim))
    vectors, labels = [], []
    for k in range(n_speakers):
        vectors.append(centers[k] + rng.standard_normal((per_speaker, dim)))
        labels.extend([f"spk{k}"] * per_speaker)
    return np.concatenate(vectors), labels


class TestBackend:
    def test_lda_finds_separation_axis(self):
        rng = np.random.default_rng(1)
        n = 40
        axis = np.array([1.0, 0.0])
        x = np.concatenate([
            rng.standard_normal((n, 2)) * [0.2, 2.0] + 5 * axis,
            rng.standard_normal((n, 2)) * [0.2, 2.0] - 5 * axis,
        ])
        labels = ["a"] * n + ["b"] * n
        backend = train_backend(x, labels, lda_dim=1, plda_iterations=2)
        direction = backend.lda[:, 0] / np.linalg.norm(backend.lda[:, 0])
        assert abs(np.dot(direction, axis)) > 0.99

    def test_plda_log_likelihood_nondecreasing(self):
        x, labels = labeled_cloud(seed=2)
        backend = train_backend(x, labels, lda_dim=3, plda_iterations=8)
        lls = backend.training_log
        diffs = np.diff(lls)
        assert np.all(diffs >= -1e-8 * np.abs(np.array(lls[:-1])))

    def test_insufficient_speakers(self):
        x, labels = labeled_cloud(n_speakers=1, seed=3)
        with pytest.raises(DigitsvError, match="need >= 2 speakers with >= 2 i-vectors each"):
            train_backend(x, labels, lda_dim=1)

    def test_bad_lda_dim(self):
        x, labels = labeled_cloud(n_speakers=3, seed=4)
        with pytest.raises(DigitsvError, match="LDA dim 3 must lie in"):
            train_backend(x, labels, lda_dim=3)  # must be <= speakers - 1


def scatter_pencil(x, labels):
    """Between-class scatter and ridged within-class scatter, as the LDA forms them."""
    labels = np.asarray(labels)
    classes = sorted(set(labels))
    means = np.stack([x[labels == c].mean(axis=0) for c in classes])
    counts = np.array([np.sum(labels == c) for c in classes])
    dev = x - means[np.searchsorted(classes, labels)]
    sw = dev.T @ dev / len(x)
    centred = means - x.mean(axis=0)
    sb = (counts[:, None] * centred).T @ centred / len(x)
    dim = x.shape[1]
    return sb, sw + (1e-8 * np.trace(sw) / dim + 1e-12) * np.eye(dim)


def sign_rule(proj):
    proj = proj.copy()
    for k in range(proj.shape[1]):
        j = np.argmax(np.abs(proj[:, k]))
        if proj[j, k] < 0:
            proj[:, k] = -proj[:, k]
    return proj


class TestLdaProjection:
    """The Cholesky reduction against scipy's generalized symmetric solver."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_scipy_generalized_eigh(self, seed):
        rng = np.random.default_rng(seed)
        speakers, dim = int(rng.integers(3, 10)), int(rng.integers(2, 16))
        x, labels = labeled_cloud(speakers, per_speaker=dim + 3, dim=dim, seed=seed)
        assert len(x) > speakers + dim  # full-rank within-class scatter
        lda_dim = min(dim, speakers - 1)
        vals, vecs = scipy.linalg.eigh(*scatter_pencil(x, labels))
        oracle = sign_rule(vecs[:, np.argsort(vals)[::-1][:lda_dim]])
        proj = _lda_projection(x, labels, lda_dim)
        assert np.max(np.abs(proj - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("seed", range(12))
    def test_rank_deficient_within_scatter(self, seed):
        # fewer samples than speakers plus dimensions: sw is singular and the
        # ridged pencil has a condition number near 1e9, so eigenvectors agree
        # with scipy only to about 1e-7; check the defining equations instead
        rng = np.random.default_rng(seed)
        speakers, per_speaker = int(rng.integers(3, 8)), 2
        dim = int(rng.integers(speakers + 2, 24))
        x, labels = labeled_cloud(speakers, per_speaker=per_speaker, dim=dim, seed=seed)
        sb, b = scatter_pencil(x, labels)
        assert len(x) - speakers < dim  # the rank of sw
        lda_dim = speakers - 1
        proj = _lda_projection(x, labels, lda_dim)
        vals = np.einsum("ik,ij,jk->k", proj, sb, proj)
        assert np.all(np.diff(vals) <= 0)
        np.testing.assert_allclose(proj.T @ b @ proj, np.eye(lda_dim), atol=1e-6)
        residual = np.linalg.norm(sb @ proj - (b @ proj) * vals)
        scale = np.linalg.norm(proj) * (np.linalg.norm(sb) + np.linalg.norm(b) * vals[0])
        assert residual <= 1e-12 * scale
        np.testing.assert_array_equal(proj, sign_rule(proj))


class TestPldaScore:
    def setup_method(self):
        self.x, self.labels = labeled_cloud(seed=5)
        self.backend = train_backend(self.x, self.labels, lda_dim=4,
                                     plda_iterations=5)

    def test_same_speaker_scores_higher(self):
        b = self.backend
        enroll = [b.prepare(v) for v in self.x[:4]]
        same = b.prepare(self.x[5])       # spk0
        different = b.prepare(self.x[-1])  # last speaker
        assert plda_score(b, enroll, same) > plda_score(b, enroll, different)

    def test_enrollment_order_invariance(self):
        b = self.backend
        e1 = [b.prepare(v) for v in self.x[:3]]
        e2 = list(reversed(e1))
        test = b.prepare(self.x[10])
        assert abs(plda_score(b, e1, test) - plda_score(b, e2, test)) < 1e-10

    def test_zero_between_covariance_gives_constant_scores(self):
        b = self.backend
        b_zero = type(b)(b.lda, b.mean, np.zeros_like(b.between), b.within)
        enroll = [b.prepare(self.x[0])]
        scores = [plda_score(b_zero, enroll, b.prepare(v))
                  for v in self.x[5:10]]
        np.testing.assert_allclose(scores, 0.0, atol=1e-9)

    def test_empty_enrollment(self):
        with pytest.raises(DigitsvError, match="no enrollment i-vectors given"):
            plda_score(self.backend, [], self.backend.prepare(self.x[0]))

    @pytest.mark.parametrize("between, within", [
        (-np.eye(4), np.eye(4)), (np.eye(4), np.zeros((4, 4))),
        (np.eye(4) + np.triu(np.ones((4, 4)), 1), np.eye(4))],
        ids=["negative between", "zero within", "asymmetric between"])
    def test_covariances_must_be_covariances(self, between, within):
        b = self.backend
        with pytest.raises(ValueError, match="positive"):
            type(b)(b.lda, b.mean, between, within)

    def test_score_ordering_invariant_under_linear_pretransform(self):
        rng = np.random.default_rng(6)
        transform = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        x2 = self.x @ transform.T
        backend2 = train_backend(x2, self.labels, lda_dim=4, plda_iterations=5)

        def trial_scores(backend, vectors):
            out = []
            for spk in ("spk0", "spk1", "spk2"):
                idx = [i for i, l in enumerate(self.labels) if l == spk][:3]
                enroll = [backend.prepare(vectors[i]) for i in idx]
                for j in range(30, 45):
                    out.append(plda_score(backend, enroll,
                                          backend.prepare(vectors[j])))
            return np.array(out)

        a = trial_scores(self.backend, self.x)
        b = trial_scores(backend2, x2)
        from scipy.stats import spearmanr

        rho = spearmanr(a, b).statistic
        assert rho > 0.999


def speaker_stats(background, speaker, utterance):
    """Statistics of one utterance whose first-order term leans toward its speaker."""
    stats = random_stats(background, seed=1000 * speaker + utterance, scale=1.0)
    offset = 2.0 * np.random.default_rng(speaker).standard_normal(background.means.shape)
    return SuffStats(stats.n, stats.f + stats.n[:, None] * offset, background.model_id)


class TestPldaScorer:
    """The closed-form scorer against ``plda_score``, its per-trial reference."""

    @pytest.fixture(scope="class")
    def chain(self):
        bg = toy_background(m=4, dim=3, seed=30)
        tv = TvModel(np.random.default_rng(31).standard_normal((12, 6)), bg)
        train = {f"spk{k}": [speaker_stats(bg, k, j) for j in range(4)] for k in range(6)}
        ivecs = [extract_ivector(st, tv) for lst in train.values() for st in lst]
        labels = [spk for spk, lst in train.items() for _ in lst]
        backend = train_backend(ivecs, labels, lda_dim=4, plda_iterations=5)
        enroll = {spk: lst[:3] for spk, lst in train.items()}
        tests = [speaker_stats(bg, k, 10 + j) for k in range(6) for j in range(3)]
        return tv, backend, enroll, tests

    def test_matches_plda_score(self, chain):
        tv, backend, enroll, tests = chain
        scorer = PldaScorer(tv, backend, enroll)
        for stats in tests:
            got = scorer.scores(stats, 1)
            test = scorer.ivector(stats)
            want = [plda_score(backend, [scorer.ivector(st) for st in enroll[spk]], test)
                    for spk in scorer.index]
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_enrollment_order_invariance(self, chain):
        tv, backend, enroll, tests = chain
        forward = PldaScorer(tv, backend, enroll)
        backward = PldaScorer(tv, backend, {spk: lst[::-1]
                                            for spk, lst in reversed(enroll.items())})
        for stats in tests:
            a, b = forward.scores(stats, 1), backward.scores(stats, 1)
            for spk, k in forward.index.items():
                assert abs(a[k] - b[backward.index[spk]]) < 1e-10

    def test_empty_enrollment(self, chain):
        tv, backend, enroll, _ = chain
        with pytest.raises(DigitsvError, match="speaker 'spk0' has no enrollment statistics"):
            PldaScorer(tv, backend, {**enroll, "spk0": []})
