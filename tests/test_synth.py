import hashlib

import numpy as np
import pytest

from digitsv.errors import DigitsvError
from digitsv.synth import SynthConfig, corrupt_prompt, generate_corpus


class TestConfig:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.n_speakers == 20 and cfg.seed == 42

    def test_too_few_speakers(self):
        with pytest.raises(DigitsvError, match="need at least 2 speakers"):
            SynthConfig(n_speakers=1)

    def test_bad_dwell(self):
        with pytest.raises(DigitsvError, match="dwell range must satisfy"):
            SynthConfig(dwell_min=1)
        with pytest.raises(DigitsvError, match="dwell range must satisfy"):
            SynthConfig(dwell_min=6, dwell_max=4)

    def test_bad_mode(self):
        with pytest.raises(DigitsvError, match="tw_mode must be one of"):
            SynthConfig(tw_mode="swap")


class TestCorruptPrompt:
    def test_single_digit_hamming_distance_one(self):
        for seed in range(20):
            out = corrupt_prompt("12345", "single_digit", seed)
            assert len(out) == 5
            assert sum(a != b for a, b in zip(out, "12345")) == 1

    def test_whole_prompt_always_differs(self):
        for seed in range(20):
            assert corrupt_prompt("777", "whole_prompt", seed) != "777"

    def test_deterministic(self):
        assert corrupt_prompt("0123", "whole_prompt", 5) == \
            corrupt_prompt("0123", "whole_prompt", 5)


class TestGenerateCorpus:
    def test_deterministic_under_seed(self):
        a = generate_corpus(SynthConfig(n_speakers=3, n_test=2, seed=4))
        b = generate_corpus(SynthConfig(n_speakers=3, n_test=2, seed=4))
        assert [u.utt_id for u in a.utterances] == [u.utt_id for u in b.utterances]
        for ua, ub in zip(a.utterances, b.utterances):
            np.testing.assert_array_equal(ua.feats.frames, ub.feats.frames)
        assert a.trials == b.trials
        # and the same across versions: every benchmark EER rests on the corpus
        digest = hashlib.sha256()
        for u in a.utterances:
            digest.update(f"{u.utt_id} {u.speaker} {u.split} {u.content}\n".encode())
            digest.update(u.feats.frames.astype("<f8").tobytes())
        digest.update("".join(f"{t}\n" for t in a.trials).encode())
        assert digest.hexdigest() == \
            "b71a0de8f5873a1af37cac8baf698d84956f46581dbbf183d1b46c3a3310e599"

    def test_enrollment_covers_all_digits(self):
        for seed in (0, 1, 2, 3):
            corpus = generate_corpus(SynthConfig(n_speakers=2, n_test=1, seed=seed))
            covered = set()
            for u in corpus.utterances:
                if u.split == "enroll":
                    covered.update(u.content)
            assert covered == set("0123456789")

    def test_lengths_exceed_graph_minimum(self):
        corpus = generate_corpus(SynthConfig(n_speakers=3, n_test=2, seed=9))
        for u in corpus.utterances:
            words = len(u.content) + 2  # mandatory edge silences
            assert u.feats.n_frames >= 3 * words

    def test_trials_reference_generated_ids(self):
        corpus = generate_corpus(SynthConfig(n_speakers=3, n_test=2, seed=10))
        ids = {u.utt_id for u in corpus.utterances}
        speakers = set(corpus.speakers)
        for t in corpus.trials:
            assert t.utterance in ids
            assert t.speaker in speakers

    def test_all_categories_present(self):
        corpus = generate_corpus(SynthConfig(n_speakers=3, n_test=2, seed=11))
        cats = {t.category for t in corpus.trials}
        assert cats == {"TC", "TW", "IC", "IW"}

    def test_tw_prompts_differ_from_content(self):
        corpus = generate_corpus(SynthConfig(n_speakers=3, n_test=2, seed=12))
        for t in corpus.trials:
            utt = corpus.by_id(t.utterance)
            if t.category in ("TC", "IC"):
                assert t.prompt == utt.content
            else:
                assert t.prompt != utt.content

    def test_no_speaker_information_when_scale_vanishes(self):
        # offsets ~ 0 leave nothing to tell speakers apart: TC-IC near chance
        from digitsv import pipeline
        from digitsv.config import PipelineConfig
        from digitsv.eval_trials import evaluate_condition

        corpus = generate_corpus(SynthConfig(n_speakers=4, n_test=3, seed=13,
                                             speaker_scale=1e-9))
        hmms = pipeline.train_hmms(corpus, PipelineConfig(hmm_components=2))
        system = pipeline.SpeakerSystem("gmm-hmm", pipeline.AlignerModels(hmms=hmms))
        speakers = pipeline.enroll_speakers(corpus, system)
        scores = pipeline.score_speaker_trials(corpus, corpus.trials, system, speakers)
        eer, _ = evaluate_condition(corpus.trials, scores, "TC_IC")
        assert 0.35 <= eer <= 0.65

    def test_content_kl_separates_when_noise_vanishes(self, small_models):
        # regenerate matching low-noise data against the small models' states
        from digitsv import pipeline
        from digitsv.config import PipelineConfig

        corpus = generate_corpus(SynthConfig(n_speakers=6, n_test=3, seed=11,
                                             noise_scale=0.05))
        cfg = PipelineConfig(hmm_components=2, mlp_hidden="64,64", mlp_epochs=20)
        hmms = pipeline.train_hmms(corpus, cfg)
        models = pipeline.AlignerModels(hmms, pipeline.train_classifier(corpus, cfg, hmms))
        kl = pipeline.score_content_trials(corpus, corpus.trials, models,
                                           level="digit", hmm_mode="hybrid")
        tc = [s for s, t in zip(kl, corpus.trials) if t.category == "TC"]
        tw = [s for s, t in zip(kl, corpus.trials) if t.category == "TW"]
        assert np.median(tc) < 0.1
        assert np.median(tw) > 20 * np.median(tc)
