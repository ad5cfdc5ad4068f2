import tracemalloc
import types

import numpy as np
import pytest
from conftest import llr_score, plda_score, roster_copy

from digitsv import pipeline
from digitsv import pgmm as pgmm_mod
from digitsv.errors import DigitsvError
from digitsv.hmm import N_STATES, compile_graph, fb_align, node_loglikes
from digitsv.ivector import PldaScorer, extract_ivector, train_backend, train_tv
from digitsv.map_speaker import SpeakerModels
from digitsv.pgmm import accumulate_stats, mixture_posteriors

SOURCES = ("gmm-hmm", "dnn", "dnn-hmm", "ubm")


@pytest.fixture(scope="module")
def enrolled(small_corpus, small_models):
    """(system, speaker models) per alignment source."""
    out = {}
    for source in SOURCES:
        system = pipeline.SpeakerSystem(source, small_models)
        out[source] = (system, pipeline.enroll_speakers(small_corpus, system))
    return out


def _mixture_posteriors(system, feats, prompt):
    """The (T, M) mixture posteriors behind ``system``'s statistics of one key."""
    models = system.models
    model = {"gmm-hmm": models.hmms, "ubm": models.ubm}.get(system.source, models.pgmm)
    forced = None if system.source == "ubm" else pipeline.align(system.source, models, feats,
                                                                prompt)
    return mixture_posteriors(model, forced, feats)


def _counting(monkeypatch, name):
    """Record (feats identity, prompt or None) for every call of ``pipeline.<name>``."""
    calls = []
    original = getattr(pipeline, name)

    def counting(*args, **kwargs):
        feats = args[2] if name == "align" else args[1]
        calls.append((id(feats), args[3] if name == "align" else None))
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counting)
    return calls


class TestAlign:
    def test_background_is_the_only_model_checked_up_front(self, small_models):
        models = pipeline.AlignerModels(pgmm=small_models.pgmm)
        system = pipeline.SpeakerSystem("dnn-hmm", models)
        assert system.background.model_id == "dnn-hmm"
        with pytest.raises(DigitsvError, match="requires a trained hmms model"):
            pipeline.SpeakerSystem("gmm-hmm", models)

    def test_missing_aligner_model_raises_config_invalid(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        no_mlp = pipeline.AlignerModels(hmms=small_models.hmms, pgmm=small_models.pgmm)
        with pytest.raises(DigitsvError, match="requires a trained mlp model"):
            pipeline.align("dnn", no_mlp, u.feats, None)
        with pytest.raises(DigitsvError, match="requires a trained mlp model"):
            pipeline.enroll_speakers(small_corpus, pipeline.SpeakerSystem("dnn", no_mlp))
        no_hmms = pipeline.AlignerModels(mlp=small_models.mlp)
        with pytest.raises(DigitsvError, match="requires a trained hmms model"):
            pipeline.align("dnn-hmm", no_hmms, u.feats, u.content)

    def test_gmm_hmm_fb_is_forced_alignment(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        got = pipeline.align("gmm-hmm", small_models, u.feats, u.content)
        graph = compile_graph(u.content, "optional_between")
        want = fb_align(graph, node_loglikes(graph, u.feats, small_models.hmms),
                        small_models.hmms)
        np.testing.assert_array_equal(got, want)

    def test_viterbi_rows_are_one_hot(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        for source in ("gmm-hmm", "dnn", "dnn-hmm"):
            hard = pipeline.align(source, small_models, u.feats, u.content, "viterbi")
            assert set(np.unique(hard)) <= {0.0, 1.0}
            np.testing.assert_array_equal(hard.sum(axis=1), 1.0)

    def test_prompted_sources_need_a_prompt(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        with pytest.raises(DigitsvError, match="needs the prompted transcription"):
            pipeline.align("gmm-hmm", small_models, u.feats, None)

    def test_statistics_reduce_the_mixture_posteriors(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        for source in SOURCES:
            system = pipeline.SpeakerSystem(source, small_models)
            alignment = None if source == "ubm" else pipeline.align(source, small_models,
                                                                     u.feats, u.content)
            stats, retained = system.statistics(u.feats, alignment)
            gammas = _mixture_posteriors(system, u.feats, u.content)
            want = accumulate_stats(gammas, u.feats, system.background.means, source)
            np.testing.assert_array_equal(stats.n, want.n)
            np.testing.assert_array_equal(stats.f, want.f)
            assert stats.background_id == source
            assert retained == np.count_nonzero(gammas.any(axis=1)) > 0

    def test_unknown_source_or_mode(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        with pytest.raises(DigitsvError, match="unknown alignment source 'ubm'"):
            pipeline.align("ubm", small_models, u.feats, u.content)
        with pytest.raises(DigitsvError, match="unknown alignment mode 'nbest'"):
            pipeline.align("dnn", small_models, u.feats, u.content, "nbest")




class TestTrialScoring:
    def test_linear_llr_matches_llr_score(self, small_corpus, enrolled):
        trials = small_corpus.trials
        for source in SOURCES:
            system, speakers = enrolled[source]
            got = pipeline.score_speaker_trials(small_corpus, trials, system,
                                                roster_copy(speakers))
            gammas = {}
            want = []
            for t in trials:
                u = small_corpus.by_id(t.utterance)
                if (u.utt_id, t.prompt) not in gammas:
                    gammas[u.utt_id, t.prompt] = _mixture_posteriors(system, u.feats, t.prompt)
                want.append(llr_score(speakers[t.speaker], system.background,
                                      gammas[u.utt_id, t.prompt], u.feats))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=source)

    def test_scoring_takes_the_roster(self, small_corpus, small_models):
        system = pipeline.SpeakerSystem("gmm-hmm", small_models)
        speakers = pipeline.enroll_speakers(small_corpus, system)
        trials = small_corpus.trials
        want = pipeline.score_speaker_trials(small_corpus, trials, system,
                                             roster_copy(speakers))
        got = pipeline.score_speaker_trials(small_corpus, trials, system, speakers)
        assert got == want
        assert len(speakers) == 0

    @pytest.mark.parametrize("source", SOURCES)
    def test_plda_scorer_matches_plda_score(self, small_corpus, small_models, source):
        system = pipeline.SpeakerSystem(source, small_models)
        bg = system.background

        def stats(feats, prompt):
            gammas = _mixture_posteriors(system, feats, prompt)
            return accumulate_stats(gammas, feats, bg.means, bg.model_id)

        enroll = {spk: [stats(u.feats, u.content) for u in small_corpus.enrollment(spk)]
                  for spk in small_corpus.speakers}
        pooled = [st for lst in enroll.values() for st in lst]
        tv = train_tv(lambda: pooled, bg, rank=8, iterations=3, seed=0)
        backend = train_backend([extract_ivector(st, tv) for st in pooled],
                                [spk for spk, lst in enroll.items() for _ in lst],
                                lda_dim=4, plda_iterations=5)

        def prepared(st):
            return backend.prepare(extract_ivector(st, tv))

        trials = small_corpus.trials
        got = pipeline.score_ivector_trials(small_corpus, trials, system, tv, backend)
        enrolled = {spk: [prepared(st) for st in lst] for spk, lst in enroll.items()}
        prompted = source in pipeline.PROMPTED_SOURCES
        tests, want = {}, []
        for t in trials:
            key = (t.utterance, t.prompt if prompted else None)
            if key not in tests:
                tests[key] = prepared(stats(small_corpus.by_id(t.utterance).feats, key[1]))
            want.append(plda_score(backend, enrolled[t.speaker], tests[key]))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_one_forced_alignment_per_key(self, small_corpus, enrolled, monkeypatch):
        trials = small_corpus.trials
        feats_id = {t.utterance: id(small_corpus.by_id(t.utterance).feats) for t in trials}
        for source in SOURCES:
            system, speakers = enrolled[source]
            calls = _counting(monkeypatch, "align")
            pipeline.score_speaker_trials(small_corpus, trials, system, roster_copy(speakers))
            prompted = source in pipeline.PROMPTED_SOURCES
            want = set() if source == "ubm" else {
                (feats_id[t.utterance], t.prompt if prompted else None) for t in trials}
            assert len(calls) == len(want) and set(calls) == want, source

    def test_classifier_runs_once_per_utterance(self, small_corpus, small_models, enrolled,
                                                monkeypatch):
        trials = small_corpus.trials
        utterances = {id(small_corpus.by_id(t.utterance).feats) for t in trials}
        for source in SOURCES:
            system, speakers = enrolled[source]
            calls = _counting(monkeypatch, "mlp_posteriors")
            pipeline.score_speaker_trials(small_corpus, trials, system, roster_copy(speakers))
            want = utterances if source in ("dnn", "dnn-hmm") else set()
            assert len(calls) == len(want) and {f for f, _ in calls} == want, source
        for mode in ("gmm", "hybrid"):
            calls = _counting(monkeypatch, "mlp_posteriors")
            pipeline.score_content_trials(small_corpus, trials, small_models, hmm_mode=mode)
            assert len(calls) == len(utterances) and {f for f, _ in calls} == utterances, mode

    def test_no_retained_frames(self, small_corpus, enrolled, monkeypatch):
        system, speakers = enrolled["ubm"]

        def silent(model, align, feats, prune=pgmm_mod.PRUNE_DEFAULT):
            return np.zeros((feats.n_frames, model.n_components))

        monkeypatch.setattr(pgmm_mod, "mixture_posteriors", silent)
        with pytest.raises(DigitsvError, match="no frame carries any non-silence mixture mass"):
            pipeline.score_speaker_trials(small_corpus, small_corpus.trials[:1], system,
                                          roster_copy(speakers))

    def test_speaker_model_of_wrong_shape(self, small_corpus, enrolled):
        system, speakers = enrolled["dnn"]
        bad = SpeakerModels(speakers.ids, speakers.means[:, :-1].copy(),
                            speakers.background_id, speakers.relevance)
        with pytest.raises(DigitsvError, match="do not match the background"):
            pipeline.score_speaker_trials(small_corpus, small_corpus.trials[:1], system, bad)
        assert len(bad) == len(speakers)  # a rejected roster is not taken

    def test_bad_trials_fail_before_any_alignment(self, small_corpus, enrolled,
                                                  monkeypatch):
        from digitsv.eval_trials import TrialRecord

        system, speakers = enrolled["gmm-hmm"]
        calls = _counting(monkeypatch, "align")
        good = small_corpus.trials[0]
        no_speaker = TrialRecord("nobody", good.utterance, good.prompt, "TC")
        no_utterance = TrialRecord(good.speaker, "no_such_utt", good.prompt, "TC")
        for bad in (no_speaker, no_utterance):
            with pytest.raises(DigitsvError, match="trial 2 "):
                pipeline.score_speaker_trials(small_corpus, [good, bad], system, speakers)
            with pytest.raises(DigitsvError, match="trial 2 "):
                pipeline.score_ivector_trials(small_corpus, [good, bad], system, None, None)
        with pytest.raises(DigitsvError, match="trial 2 .*no_such_utt"):
            pipeline.score_content_trials(small_corpus, [good, no_utterance], None)
        assert calls == []

    @staticmethod
    def _peak(run):
        run()  # warm-up: first-call allocations are not per key
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_one_key_not_all_keys(self, small_corpus, small_models, enrolled):
        # a cross-key cache of alignments, posteriors or statistics would
        # grow with the key count
        system, speakers = enrolled["gmm-hmm"]
        trials = small_corpus.trials
        frames = {t.utterance: small_corpus.by_id(t.utterance).feats.n_frames for t in trials}
        longest = max(trials, key=lambda t: frames[t.utterance])
        t_max = frames[longest.utterance]

        def speaker(subset):
            rosters = [roster_copy(speakers) for _ in range(2)]  # made before tracing
            return self._peak(lambda: pipeline.score_speaker_trials(small_corpus, subset,
                                                                    system, rosters.pop()))

        one_key, all_keys = speaker([longest]), speaker(trials)
        posterior_bytes = t_max * system.background.n_mixtures * 8
        assert all_keys <= one_key + posterior_bytes, (one_key, all_keys, posterior_bytes)

        for mode in ("gmm", "hybrid"):
            def content(subset):
                return self._peak(lambda: pipeline.score_content_trials(
                    small_corpus, subset, small_models, hmm_mode=mode))

            one_key, all_keys = content([longest]), content(trials)
            posterior_bytes = t_max * N_STATES * 8  # one alignment's (T, 33) matrix
            assert all_keys <= one_key + posterior_bytes, (mode, one_key, all_keys,
                                                           posterior_bytes)

        # beyond the roster's (speakers, M, D) array, enrolling every speaker
        # holds no more than enrolling one speaker from one utterance: not even
        # the previous utterance's (M, D) statistics while the next is aligned
        utts = [u for u in small_corpus.utterances if u.split == "enroll"]
        utt = max(utts, key=lambda u: u.feats.n_frames)
        one = types.SimpleNamespace(speakers=[utt.speaker], enrollment=lambda spk: [utt])
        model_bytes = system.background.means.nbytes

        def beyond_roster(corpus):
            return (self._peak(lambda: pipeline.enroll_speakers(corpus, system))
                    - len(corpus.speakers) * model_bytes)

        one_key, all_keys = beyond_roster(one), beyond_roster(small_corpus)
        assert all_keys <= one_key + model_bytes // 2, (one_key, all_keys, model_bytes)

    def test_plda_scorer_holds_no_previous_statistics(self, small_corpus, small_models,
                                                      enrolled):
        # like MAP enrollment, building the i-vector scorer's enrolled speakers
        # holds no utterance's (M, D) statistics while the next one is aligned
        system, _ = enrolled["gmm-hmm"]
        bg = system.background
        ids = pipeline._enrolled(small_corpus)
        pooled = [st for spk in ids
                  for st in pipeline._enrollment_stats(small_corpus.enrollment(spk), system)]
        tv = train_tv(lambda: pooled, bg, rank=8, iterations=2, seed=0)
        backend = train_backend([extract_ivector(st, tv) for st in pooled],
                                [spk for spk in ids for _ in small_corpus.enrollment(spk)],
                                lda_dim=4, plda_iterations=2)
        del pooled
        utts = [u for u in small_corpus.utterances if u.split == "enroll"]
        utt = max(utts, key=lambda u: u.feats.n_frames)
        model_bytes = bg.means.nbytes

        def peak(plan):
            """Peak of building the scorer over ``plan``, speaker -> enrollment utterances."""
            return self._peak(lambda: PldaScorer(tv, backend, {
                spk: pipeline._enrollment_stats(plan[spk], system) for spk in plan}))

        one_key = peak({utt.speaker: [utt]})
        all_keys = peak({spk: small_corpus.enrollment(spk) for spk in ids})
        assert all_keys <= one_key + model_bytes // 2, (one_key, all_keys, model_bytes)
