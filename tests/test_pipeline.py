import tracemalloc

import numpy as np
import pytest
from conftest import roster_copy

from digitsv import pipeline
from digitsv.errors import ConfigInvalid, DigitsvError, NoRetainedFrames, ShapeMismatch
from digitsv.hmm import compile_graph, fb_align
from digitsv.ivector import extract_ivector, plda_score, train_backend, train_tv
from digitsv.map_speaker import SpeakerModels, llr_score
from digitsv.pgmm import MixturePosteriors, accumulate_stats

SOURCES = ("gmm-hmm", "dnn", "dnn-hmm", "ubm")


@pytest.fixture(scope="module")
def enrolled(small_corpus, small_models):
    """(system, speaker models) per alignment source."""
    out = {}
    for source in SOURCES:
        system = pipeline.SpeakerSystem(source, small_models)
        out[source] = (system, pipeline.enroll_speakers(small_corpus, system))
    return out


def _counting_stats_posteriors(monkeypatch, system):
    """Record (feats identity, prompt) for every stats_posteriors call on ``system``."""
    calls = []
    original = system.stats_posteriors

    def counting(feats, prompt=None, dnn_align=None):
        calls.append((id(feats), prompt))
        return original(feats, prompt, dnn_align)

    monkeypatch.setattr(system, "stats_posteriors", counting)
    return calls


class TestAlign:
    def test_background_is_the_only_model_checked_up_front(self, small_models):
        models = pipeline.AlignerModels(pgmm=small_models.pgmm)
        system = pipeline.SpeakerSystem("dnn-hmm", models)
        assert system.background.model_id == "dnn-hmm"
        with pytest.raises(ConfigInvalid):
            pipeline.SpeakerSystem("gmm-hmm", models)

    def test_missing_aligner_model_raises_config_invalid(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        no_mlp = pipeline.AlignerModels(hmms=small_models.hmms, pgmm=small_models.pgmm)
        with pytest.raises(ConfigInvalid):
            pipeline.align("dnn", no_mlp, u.feats, None)
        with pytest.raises(ConfigInvalid):
            pipeline.SpeakerSystem("dnn", no_mlp).stats_posteriors(u.feats, u.content)
        no_hmms = pipeline.AlignerModels(mlp=small_models.mlp)
        with pytest.raises(ConfigInvalid):
            pipeline.align("dnn-hmm", no_hmms, u.feats, u.content)

    def test_gmm_hmm_fb_is_forced_alignment(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        got = pipeline.align("gmm-hmm", small_models, u.feats, u.content)
        want = fb_align(compile_graph(u.content, "optional_between"), u.feats,
                        small_models.hmms)
        np.testing.assert_array_equal(got.posteriors, want.posteriors)

    def test_viterbi_rows_are_one_hot(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        for source in ("gmm-hmm", "dnn", "dnn-hmm"):
            hard = pipeline.align(source, small_models, u.feats, u.content, "viterbi")
            assert set(np.unique(hard.posteriors)) <= {0.0, 1.0}
            np.testing.assert_array_equal(hard.posteriors.sum(axis=1), 1.0)

    def test_prompted_sources_need_a_prompt(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        with pytest.raises(ConfigInvalid):
            pipeline.align("gmm-hmm", small_models, u.feats, None)

    def test_stats_posteriors_is_posteriors_of_alignment(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        for source in SOURCES:
            system = pipeline.SpeakerSystem(source, small_models)
            got = system.stats_posteriors(u.feats, u.content)
            want = system.posteriors(system.alignment(u.feats, u.content), u.feats)
            np.testing.assert_array_equal(got.gammas, want.gammas)

    def test_unknown_source_or_mode(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        with pytest.raises(ConfigInvalid):
            pipeline.align("ubm", small_models, u.feats, u.content)
        with pytest.raises(ConfigInvalid):
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
                    gammas[u.utt_id, t.prompt] = system.stats_posteriors(u.feats, t.prompt)
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
            gammas = system.stats_posteriors(feats, prompt)
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

    def test_stats_posteriors_once_per_key(self, small_corpus, enrolled, monkeypatch):
        trials = small_corpus.trials
        feats_id = {t.utterance: id(small_corpus.by_id(t.utterance).feats) for t in trials}
        for source in SOURCES:
            system, speakers = enrolled[source]
            calls = _counting_stats_posteriors(monkeypatch, system)
            pipeline.score_speaker_trials(small_corpus, trials, system, roster_copy(speakers))
            prompted = source in ("gmm-hmm", "dnn-hmm")
            want = {(feats_id[t.utterance], t.prompt if prompted else None) for t in trials}
            assert len(calls) == len(want) and set(calls) == want, source

    def test_no_retained_frames(self, small_corpus, enrolled, monkeypatch):
        system, speakers = enrolled["ubm"]
        bg = system.background

        def silent(feats, prompt=None, dnn_align=None):
            return MixturePosteriors(np.zeros((feats.n_frames, bg.n_mixtures)), "HMM",
                                     None, bg.n_components)

        monkeypatch.setattr(system, "stats_posteriors", silent)
        with pytest.raises(NoRetainedFrames):
            pipeline.score_speaker_trials(small_corpus, small_corpus.trials[:1], system,
                                          roster_copy(speakers))

    def test_speaker_model_of_wrong_shape(self, small_corpus, enrolled):
        system, speakers = enrolled["dnn"]
        bad = SpeakerModels(speakers.ids, speakers.means[:, :-1].copy(),
                            speakers.background_id, speakers.relevance)
        with pytest.raises(ShapeMismatch):
            pipeline.score_speaker_trials(small_corpus, small_corpus.trials[:1], system, bad)
        assert len(bad) == len(speakers)  # a rejected roster is not taken

    def test_bad_trials_fail_before_any_alignment(self, small_corpus, enrolled,
                                                  monkeypatch):
        from digitsv.eval_trials import TrialRecord

        system, speakers = enrolled["gmm-hmm"]
        calls = _counting_stats_posteriors(monkeypatch, system)
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

    def test_peak_memory_is_one_key_not_all_keys(self, small_corpus, enrolled):
        # a cross-trial cache of mixture posteriors would grow with the key count
        system, speakers = enrolled["gmm-hmm"]
        trials = small_corpus.trials
        frames = {t.utterance: small_corpus.by_id(t.utterance).feats.n_frames for t in trials}
        longest = max(trials, key=lambda t: frames[t.utterance])

        def peak(subset):
            roster = roster_copy(speakers)
            tracemalloc.start()
            try:
                pipeline.score_speaker_trials(small_corpus, subset, system, roster)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak([longest])
        one_key, all_keys = peak([longest]), peak(trials)
        posterior_bytes = frames[longest.utterance] * system.background.n_mixtures * 8
        assert all_keys <= one_key + posterior_bytes, (one_key, all_keys, posterior_bytes)
