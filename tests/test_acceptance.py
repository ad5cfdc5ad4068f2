"""End-to-end acceptance checks.

Each test prints one `[acceptance] <criterion>: PASS/FAIL` line; tolerances
are fixed here, not tuned at runtime.  The end-to-end checks run on the
built-in synthetic corpus (20 speakers, seed 42).
"""

import os
import time

import zlib

import numpy as np
import pytest

from conftest import enumeration_marginals, make_hmm_set, state_gmm
from digitsv import pipeline
from digitsv.eval_trials import evaluate_condition
from digitsv.features import FeatureKind, FeatureSequence
from digitsv.hmm import N_STATES, compile_graph, fb_align, node_loglikes, viterbi_align
from digitsv.synth import SynthConfig, generate_corpus


def check(name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert condition, f"{name}: {detail}"


class TestCriterion1ForwardBackwardOracle:
    def test_fb_and_viterbi_match_enumeration(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        worst = 0.0
        cases = 0
        while cases < 100:
            seed = int(rng.integers(1e9))
            case_rng = np.random.default_rng(seed)
            t_max = int(case_rng.integers(3, 7))
            hmms = make_hmm_set(dim=1, n_components=int(case_rng.integers(1, 3)),
                                rng=case_rng, spread=2.0)
            hmms.self_loop = case_rng.uniform(0.2, 0.8, N_STATES)
            graph = compile_graph("5", "none")
            frames = 2.0 * case_rng.standard_normal((t_max, 1))
            feats = FeatureSequence(np.tile(frames, (1, 60)), FeatureKind.MFCC60)
            from conftest import scalar_gmm_loglike

            loglikes = np.array([
                [scalar_gmm_loglike(state_gmm(hmms, s), feats.frames[t]) for s in (15, 16, 17)]
                for t in range(t_max)
            ])
            marg, best_path, _, _ = enumeration_marginals(
                loglikes, hmms.self_loop[[15, 16, 17]]
            )
            emissions = node_loglikes(graph, feats, hmms)
            got = fb_align(graph, emissions, hmms)[:, [15, 16, 17]]
            worst = max(worst, float(np.abs(got - marg).max()))
            vit = viterbi_align(graph, emissions, hmms)
            if not np.array_equal(vit, np.array([15, 16, 17])[best_path]):
                check("criterion 1: forward-backward oracle", False,
                      f"viterbi mismatch on seed {seed}")
            cases += 1
        elapsed = time.monotonic() - t0
        check("criterion 1: forward-backward oracle",
              worst < 1e-10 and elapsed < 10.0,
              f"{cases} cases, max deviation {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2EmMonotonicity:
    def test_all_five_objectives(self, small_corpus, small_models):
        t0 = time.monotonic()
        failures = []

        def monotone(values, slack=1e-8):
            values = np.asarray(values, dtype=float)
            return bool(np.all(np.diff(values) >= -slack * np.abs(values[:-1])))

        # diagonal GMM EM
        rng = np.random.default_rng(0)
        data = np.concatenate([rng.normal(-3, 1, (150, 2)), rng.normal(3, 1, (150, 2))])
        from digitsv.gmm import GmmTrainConfig, train_em

        gmm = train_em(data, GmmTrainConfig(target_components=8))
        if not all(monotone(lls) for _, lls in gmm.training_log):
            failures.append("gmm train_em")

        # HMM training (both logged objectives, per mixture size)
        by_size = {}
        for row in small_models.hmms.training_log:
            by_size.setdefault(row["n_components"], []).append(row["fb_ll"])
        if not all(monotone(lls, 1e-6) for lls in by_size.values()):
            failures.append("hmm train_hmm_set")

        # phonetic GMM EM
        from digitsv.neural_aligner import mlp_posteriors
        from digitsv.pgmm import pgmm_e_step, pgmm_m_step

        enroll = [u for u in small_corpus.utterances if u.split == "enroll"][:8]
        aligns = [mlp_posteriors(small_models.mlp, u.feats) for u in enroll]
        feats = [u.feats for u in enroll]
        pgmm = small_models.pgmm
        accum, objective = pgmm_e_step(pgmm, aligns, feats)
        objectives = [objective]
        import warnings

        from digitsv.errors import EmptyStateWarning

        for _ in range(4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyStateWarning)
                pgmm = pgmm_m_step(pgmm, accum)
            accum, objective = pgmm_e_step(pgmm, aligns, feats)
            objectives.append(objective)
        if not monotone(objectives):
            failures.append("pgmm EM step")

        # total-variability EM
        from digitsv.ivector import train_backend, train_tv
        from digitsv.pgmm import Background, SuffStats

        bg = Background(rng.standard_normal((4, 3)), 0.5 + rng.random((4, 3)), "bg")
        stats = []
        for k in range(25):
            n = rng.random(4) * 15 + 1
            f = rng.standard_normal((4, 3)) * np.sqrt(n)[:, None] * 2
            rng.standard_normal((4, 3))  # keeps the draws of the checks below unchanged
            stats.append(SuffStats(n, f, "bg"))
        tv = train_tv(lambda: stats, bg, rank=5, iterations=5, seed=0)
        if not monotone(tv.training_log):
            failures.append("train_tv")

        # PLDA EM
        centers = 4.0 * rng.standard_normal((6, 5))
        vecs, labels = [], []
        for k in range(6):
            vecs.append(centers[k] + rng.standard_normal((8, 5)))
            labels += [f"s{k}"] * 8
        backend = train_backend(np.concatenate(vecs), labels, lda_dim=3,
                                plda_iterations=8)
        if not monotone(backend.training_log):
            failures.append("plda EM")

        elapsed = time.monotonic() - t0
        check("criterion 2: EM monotonicity suite",
              not failures and elapsed < 60.0,
              f"failures={failures or 'none'}, {elapsed:.1f}s")


class TestCriterion3EquationOracles:
    def test_equation_oracles(self):
        failures = []

        # joint state/component product (HMM and classifier alignments)
        from digitsv.gmm import loglikes_and_posteriors
        from digitsv.pgmm import Pgmm, mixture_posteriors

        rng = np.random.default_rng(7)
        # one draw of every state's means, in the order of one draw per state
        pgmm = Pgmm(np.tile([0.6, 0.4], (30, 1)),
                    np.tile(rng.standard_normal((30, 2, 1)), (1, 1, 60)),
                    np.ones((30, 2, 60)))
        post = np.zeros((1, N_STATES))
        post[0, 2], post[0, 9], post[0, 30] = 0.5, 0.3, 0.2
        frame = np.tile(rng.standard_normal((1, 1)), (1, 60))
        feats = FeatureSequence(frame, FeatureKind.MFCC60)
        mp = mixture_posteriors(pgmm, post, feats, prune=0.0)
        ok = True
        for state, mass in ((2, 0.5), (9, 0.3)):
            inner = loglikes_and_posteriors(state_gmm(pgmm, state), frame)[1][0]
            expect = mass * inner
            got = mp[0, 2 * state:2 * state + 2]
            ok &= bool(np.abs(got - expect).max() < 1e-8)
        if not ok:
            failures.append("state-component product")

        # zeroth- and first-order statistics on a scalar case
        from digitsv.pgmm import accumulate_stats

        g = np.array([[0.25, 0.75], [1.0, 0.0]])
        x = np.array([[2.0], [-1.0]])
        means = np.array([[0.5], [1.5]])
        feats1 = FeatureSequence(np.tile(x, (1, 60)), FeatureKind.MFCC60)
        stats = accumulate_stats(g, feats1, np.tile(means, (1, 60)))
        n_expect = [0.25 + 1.0, 0.75]
        f0 = 0.25 * (2.0 - 0.5) + 1.0 * (-1.0 - 0.5)
        f1 = 0.75 * (2.0 - 1.5)
        if not (abs(stats.n[0] - n_expect[0]) < 1e-8
                and abs(stats.n[1] - n_expect[1]) < 1e-8
                and abs(stats.f[0, 0] - f0) < 1e-8
                and abs(stats.f[1, 0] - f1) < 1e-8):
            failures.append("Baum-Welch statistics")

        # MAP adaptation with alpha = 1/(N+r)
        from digitsv.map_speaker import map_adapt
        from digitsv.pgmm import Background, SuffStats

        bg = Background(np.zeros((1, 60)), np.ones((1, 60)), "bg")
        sample_mean = np.full(60, 2.0)
        st = SuffStats(np.array([5.0]), 5.0 * sample_mean[None, :])
        adapted = map_adapt(bg, st, relevance=5.0)
        if np.abs(adapted[0] - 1.0).max() > 1e-8:  # mu + 0.5*(mean-mu)
            failures.append("MAP hand case")

        # KL pipeline: pooling, smoothing, divergence vs scalar arithmetic
        from digitsv.content_kl import kl_score, smooth

        eps = 1e-5
        hp = smooth(np.array([[1.0, 0.0]]), eps)
        dp = smooth(np.array([[0.5, 0.5]]), eps)
        h0, h1 = (1 + eps) / (1 + 2 * eps), eps / (1 + 2 * eps)
        expected = h0 * np.log(h0 / 0.5) + h1 * np.log(h1 / 0.5)
        got = kl_score(hp, dp)
        if abs(got - expected) > 1e-8 or abs(got - np.log(2)) > 1e-3:
            failures.append("KL log-2 case")

        # scalar i-vector posterior solve: (1 + 2*3*2) w = 2*6 -> w = 12/13
        from digitsv.ivector import TvModel, extract_ivector

        bg1 = Background(np.zeros((1, 1)), np.ones((1, 1)), "bg")
        tv = TvModel(np.array([[2.0]]), bg1)
        st1 = SuffStats(np.array([3.0]), np.array([[6.0]]), "bg")
        if abs(extract_ivector(st1, tv)[0] - 12.0 / 13.0) > 1e-8:
            failures.append("i-vector scalar solve")

        check("criterion 3: equation oracles", not failures,
              f"failures={failures or 'none'}")


class TestCriterion4MetricOracles:
    def test_metrics_match_brute_force(self):
        from test_eval_trials import brute_force_eer, brute_force_min_dcf

        from digitsv.eval_trials import SRE08, SRE10, ScoreSet, compute_eer, \
            compute_min_dcf

        ss = ScoreSet([0.9, 0.6, 0.5, 0.7, 0.3, 0.1],
                      [True, True, True, False, False, False])
        hand_ok = compute_eer(ss) == pytest.approx(1.0 / 3.0, abs=0)

        rng = np.random.default_rng(77)
        worst = 0.0
        sets = 0
        while sets < 50:
            n = int(rng.integers(6, 40))
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            if labels.all() or not labels.any():
                continue
            scores = np.round(rng.standard_normal(n), 2)
            ss = ScoreSet(scores, labels)
            worst = max(worst, abs(compute_eer(ss) - brute_force_eer(scores, labels)))
            for params in (SRE08, SRE10):
                worst = max(worst, abs(compute_min_dcf(ss, params)
                                       - brute_force_min_dcf(scores, labels, params)))
            sets += 1
        check("criterion 4: metric oracles", hand_ok and worst < 1e-12,
              f"max deviation {worst:.2e} over {sets} sets")


class TestCriterion5GradientCheck:
    def test_finite_differences(self):
        from test_neural_aligner import toy_model

        from digitsv.neural_aligner import loss_and_gradients

        rng = np.random.default_rng(5)
        model = toy_model(sizes=(6, 8, 5), seed=3)
        x = rng.standard_normal((10, 6))
        y = rng.integers(0, 5, 10)
        _, grads_w, grads_b = loss_and_gradients(model, x, y)
        h = 1e-5
        worst = 0.0
        for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
            for tensor, grad in zip(params, grads):
                flat = tensor.reshape(-1)
                gflat = grad.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up, _, _ = loss_and_gradients(model, x, y)
                    flat[idx] = orig - h
                    down, _, _ = loss_and_gradients(model, x, y)
                    flat[idx] = orig
                    numeric = (up - down) / (2 * h)
                    denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
                    worst = max(worst, abs(numeric - gflat[idx]) / denom)
        check("criterion 5: gradient check", worst < 1e-4,
              f"max relative error {worst:.2e}")


class TestCriterion6SpeakerVerification:
    def test_alignment_beats_unsupervised(self, bench_corpus, bench_models):
        t0 = time.monotonic()
        eers = {}
        for source in ("gmm-hmm", "dnn", "ubm"):
            system = pipeline.SpeakerSystem(source, bench_models)
            speakers = pipeline.enroll_speakers(bench_corpus, system)
            scores = pipeline.score_speaker_trials(bench_corpus, bench_corpus.trials,
                                                   system, speakers)
            eer, _ = evaluate_condition(bench_corpus.trials, scores, "TC_IC")
            eers[source] = eer
        elapsed = time.monotonic() - t0
        best_aligned = min(eers["gmm-hmm"], eers["dnn"])
        ok = (eers["gmm-hmm"] <= 0.10 and eers["dnn"] <= 0.10
              and eers["ubm"] >= best_aligned and elapsed < 900.0)
        detail = ", ".join(f"{k} {100 * v:.2f}%" for k, v in eers.items())
        check("criterion 6: speaker verification orderings", ok,
              f"{detail}, {elapsed:.0f}s")


class TestCriterion7ContentVerification:
    def test_digit_level_content_scoring(self, bench_corpus, bench_models):
        t0 = time.monotonic()
        kl_digit = pipeline.score_content_trials(bench_corpus, bench_corpus.trials,
                                                 bench_models, level="digit",
                                                 hmm_mode="hybrid")
        eer_digit, _ = evaluate_condition(bench_corpus.trials, kl_digit,
                                          "TC_TW", negate=True)
        kl_state = pipeline.score_content_trials(bench_corpus, bench_corpus.trials,
                                                 bench_models, level="state",
                                                 hmm_mode="hybrid")
        eer_state, _ = evaluate_condition(bench_corpus.trials, kl_state,
                                          "TC_TW", negate=True)
        elapsed = time.monotonic() - t0
        ok = eer_digit <= 0.05 and eer_digit <= eer_state and elapsed < 300.0
        check("criterion 7: content verification orderings", ok,
              f"digit {100 * eer_digit:.2f}%, state {100 * eer_state:.2f}%, "
              f"{elapsed:.0f}s")


class TestSupplementaryMapVsIvector:
    def test_map_backend_outperforms_ivector_on_short_utterances(
            self, bench_corpus, bench_models):
        """Supplementary ordering check: on five-digit test utterances the
        point-estimate i-vector backend trails GMM-MAP."""
        from digitsv.ivector import extract_ivector, train_backend, train_tv

        system = pipeline.SpeakerSystem("dnn", bench_models)
        enroll_stats = {
            spk: [system.statistics(u.feats, pipeline.align("dnn", bench_models, u.feats,
                                                            u.content))[0]
                  for u in bench_corpus.enrollment(spk)]
            for spk in bench_corpus.speakers
        }
        pooled = [s for lst in enroll_stats.values() for s in lst]
        tv = train_tv(lambda: pooled, system.background, rank=20, iterations=5, seed=0)
        ivecs, labels = [], []
        for spk, lst in enroll_stats.items():
            for st in lst:
                ivecs.append(extract_ivector(st, tv))
                labels.append(spk)
        backend = train_backend(ivecs, labels, lda_dim=10, plda_iterations=8)
        iv_scores = pipeline.score_ivector_trials(bench_corpus, bench_corpus.trials,
                                                  system, tv, backend)
        iv_eer, _ = evaluate_condition(bench_corpus.trials, iv_scores, "TC_IC")

        speakers = pipeline.enroll_speakers(bench_corpus, system)
        map_scores = pipeline.score_speaker_trials(bench_corpus, bench_corpus.trials,
                                                   system, speakers)
        map_eer, _ = evaluate_condition(bench_corpus.trials, map_scores, "TC_IC")
        check("supplementary: GMM-MAP vs i-vector ordering", map_eer <= iv_eer,
              f"map {100 * map_eer:.2f}% <= ivector {100 * iv_eer:.2f}%")


class TestCriterion8Determinism:
    def _run_pipeline(self, root):
        from digitsv.cli import cli_dispatch

        corpus = os.path.join(root, "c")
        models = os.path.join(root, "m")
        os.makedirs(models)
        steps = [
            ["synth", "--out", corpus, "--speakers", "5",
             "--test-per-speaker", "2", "--seed", "17"],
            ["train-hmm", "--corpus", corpus, "--components", "2",
             "--out", f"{models}/hmm.dvmd"],
            ["train-mlp", "--corpus", corpus, "--hmm", f"{models}/hmm.dvmd",
             "--hidden", "64,64", "--epochs", "5", "--seed", "0",
             "--out", f"{models}/mlp.dvmd"],
            ["train-pgmm", "--corpus", corpus, "--mlp", f"{models}/mlp.dvmd",
             "--components", "2", "--em-iterations", "2",
             "--out", f"{models}/pgmm.dvmd"],
            ["train-ubm", "--corpus", corpus, "--components", "8",
             "--out", f"{models}/ubm.dvmd"],
            ["enroll-map", "--corpus", corpus, "--source", "dnn",
             "--mlp", f"{models}/mlp.dvmd", "--pgmm", f"{models}/pgmm.dvmd",
             "--out", f"{models}/spk.dvmd"],
            ["score-speaker", "--corpus", corpus, "--source", "dnn",
             "--mlp", f"{models}/mlp.dvmd", "--pgmm", f"{models}/pgmm.dvmd",
             "--speakers", f"{models}/spk.dvmd", "--out", f"{root}/scores.txt"],
            ["score-content", "--corpus", corpus, "--hmm", f"{models}/hmm.dvmd",
             "--mlp", f"{models}/mlp.dvmd", "--out", f"{root}/kl.txt"],
        ]
        for argv in steps:
            assert cli_dispatch(argv) == 0, argv
        import contextlib
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_dispatch(["evaluate", "--trials",
                                 f"{corpus}/corpus/trials/trials.txt",
                                 "--scores", f"{root}/scores.txt",
                                 "--condition", "TC-IC"]) == 0
            assert cli_dispatch(["evaluate", "--trials",
                                 f"{corpus}/corpus/trials/trials.txt",
                                 "--scores", f"{root}/kl.txt", "--content",
                                 "--condition", "TC-TW"]) == 0
        return buf.getvalue()

    def test_bit_identical_rerun(self, tmp_path):
        a = tmp_path / "runA"
        b = tmp_path / "runB"
        a.mkdir(), b.mkdir()
        report_a = self._run_pipeline(str(a))
        report_b = self._run_pipeline(str(b))

        mismatches = []
        files_a = sorted(
            os.path.relpath(os.path.join(dirpath, f), a)
            for dirpath, _, names in os.walk(a) for f in names
        )
        files_b = sorted(
            os.path.relpath(os.path.join(dirpath, f), b)
            for dirpath, _, names in os.walk(b) for f in names
        )
        if files_a != files_b:
            mismatches.append("file sets differ")
        for rel in files_a:
            if (a / rel).read_bytes() != (b / rel).read_bytes():
                mismatches.append(rel)
        if report_a != report_b:
            mismatches.append("evaluation report")
        check("criterion 8: determinism", not mismatches,
              f"{len(files_a)} files compared, mismatches={mismatches or 'none'}")


class TestCriterion9FormatRobustness:
    def test_thousand_manglings_per_format(self, tmp_path):
        from test_formats import READERS, _valid_files

        from digitsv.errors import FormatError, Truncated

        files = _valid_files(tmp_path)
        escaped = []
        positioned = True
        for kind, reader in sorted(READERS.items()):
            original = files[kind].read_bytes()
            rng = np.random.default_rng(zlib.crc32(kind.encode()))
            target = tmp_path / f"m.{kind}"
            for trial in range(1000):
                data = bytearray(original)
                if trial % 2 == 0:
                    data = data[: int(rng.integers(0, len(data)))]
                else:
                    for _ in range(int(rng.integers(1, 4))):
                        pos = int(rng.integers(0, len(data)))
                        data[pos] ^= int(rng.integers(1, 256))
                target.write_bytes(bytes(data))
                try:
                    reader(target)
                except Truncated as exc:
                    if not isinstance(exc.offset, int):
                        positioned = False
                except FormatError:
                    pass
                except Exception as exc:  # noqa: BLE001
                    escaped.append((kind, trial, repr(exc)))
        check("criterion 9: format robustness",
              not escaped and positioned,
              f"escaped={escaped[:3] or 'none'}")
