import numpy as np
import pytest

from digitsv import pipeline
from digitsv.errors import ConfigInvalid
from digitsv.hmm import compile_graph, fb_align


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
        want = fb_align(compile_graph(u.content, small_models.hmms, "optional_between"),
                        u.feats)
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

    def test_unknown_source_or_mode(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        with pytest.raises(ConfigInvalid):
            pipeline.align("ubm", small_models, u.feats, u.content)
        with pytest.raises(ConfigInvalid):
            pipeline.align("dnn", small_models, u.feats, u.content, "nbest")


class TestAlignmentCache:
    def test_prompt_keys_only_sources_that_read_it(self, small_corpus, small_models):
        u = next(u for u in small_corpus.utterances if u.split == "test")
        other = "0123" if u.content != "0123" else "4567"
        for source, reads_prompt in (("gmm-hmm", True), ("dnn-hmm", True),
                                     ("dnn", False), ("ubm", False)):
            cache = pipeline.AlignmentCache(pipeline.SpeakerSystem(source, small_models))
            first = cache.stats_posteriors(u, u.content)
            assert (cache.stats_posteriors(u, other) is first) != reads_prompt, source

    def test_stats_posteriors_is_posteriors_of_alignment(self, small_corpus, small_models):
        u = small_corpus.utterances[0]
        for source in ("gmm-hmm", "dnn", "dnn-hmm", "ubm"):
            system = pipeline.SpeakerSystem(source, small_models)
            got = system.stats_posteriors(u.feats, u.content)
            want = system.posteriors(system.alignment(u.feats, u.content), u.feats)
            np.testing.assert_array_equal(got.gammas, want.gammas)
