import contextlib
import io
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROSTER_DEFECTS, roster_payload
from digitsv import formats
from digitsv.cli import cli_dispatch
from digitsv.config import PipelineConfig, load_config, parse_config_lines
from digitsv.errors import DigitsvError
from digitsv.features import AudioClip, FeatureSequence, write_wav
from digitsv.pgmm import SuffStats


def run(argv):
    return cli_dispatch(argv)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A small corpus with all models trained through the CLI."""
    root = str(tmp_path_factory.mktemp("cliwork"))
    corpus = os.path.join(root, "c")
    models = os.path.join(root, "models")
    os.makedirs(models)
    assert run(["synth", "--out", corpus, "--speakers", "6",
                "--test-per-speaker", "2", "--seed", "3"]) == 0
    assert run(["train-hmm", "--corpus", corpus, "--components", "2",
                "--out", f"{models}/hmm.dvmd"]) == 0
    assert run(["train-mlp", "--corpus", corpus, "--hmm", f"{models}/hmm.dvmd",
                "--hidden", "64,64", "--epochs", "6",
                "--out", f"{models}/mlp.dvmd"]) == 0
    assert run(["train-pgmm", "--corpus", corpus, "--mlp", f"{models}/mlp.dvmd",
                "--components", "2", "--em-iterations", "2",
                "--out", f"{models}/pgmm.dvmd"]) == 0
    assert run(["train-ubm", "--corpus", corpus, "--components", "8",
                "--out", f"{models}/ubm.dvmd"]) == 0
    return {"root": root, "corpus": corpus, "models": models}


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_is_usage_error(self):
        assert run([]) == 1

    def test_missing_flag_is_usage_error(self):
        assert run(["train-hmm"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["train-hmm", "--corpus", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "x.dvmd")]) == 2

    def test_corrupt_model_is_data_error(self, tmp_path, work):
        bad = tmp_path / "bad.dvmd"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert run(["score-content", "--corpus", work["corpus"],
                    "--hmm", str(bad), "--mlp", str(bad),
                    "--out", str(tmp_path / "out.txt")]) == 2

    def test_error_state_is_scoped(self, tmp_path, capsys):
        # a dispatch raises on overflow inside the stage only: numpy's error state
        # is the caller's again after a success and after a FloatingPointError
        # (synth means of 1e308 overflow float64)
        before = np.geterr()
        synth = ["synth", "--speakers", "2", "--test-per-speaker", "1"]
        assert run([*synth, "--out", str(tmp_path / "ok")]) == 0
        assert np.geterr() == before
        capsys.readouterr()
        assert run([*synth, "--separation", "1e308", "--out", str(tmp_path / "big")]) == 2
        _assert_error_line(capsys, "error: synth: numerical failure: overflow")
        assert np.geterr() == before

    @pytest.mark.parametrize("command", ["align", "accumulate-stats"])
    def test_flag_the_source_never_reads(self, work, tmp_path, capsys, command):
        models, corpus = work["models"], work["corpus"]
        utt = _split_utts(corpus, "test")[0]
        text = dict(
            line.split() for line in open(f"{corpus}/corpus/transcripts/transcripts.txt")
        )[utt]
        feats, align = f"{corpus}/corpus/feats/{utt}.dvfe", str(tmp_path / "a.dvpo")
        assert run(["align", "--source", "dnn", "--mlp", f"{models}/mlp.dvmd",
                    "--feats", feats, "--out", align]) == 0
        argv, flag, source = {
            "align": (["align", "--source", "gmm-hmm", "--hmm", f"{models}/hmm.dvmd",
                       "--feats", feats, "--transcript", text, "--dnn-feats", feats],
                      "--dnn-feats", "gmm-hmm"),
            "accumulate-stats": (["accumulate-stats", "--source", "ubm",
                                  "--ubm", f"{models}/ubm.dvmd", "--feats", feats,
                                  "--align", align], "--align", "ubm"),
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert flag in err and f"--source {source}" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("backend, flag", [("map", "--tv"), ("map", "--plda"),
                                               ("ivector", "--speakers")])
    def test_flag_the_backend_never_reads(self, work, ivector_models, tmp_path, capsys,
                                          backend, flag):
        models, corpus = work["models"], work["corpus"]
        ubm = ["--source", "ubm", "--ubm", f"{models}/ubm.dvmd"]
        spk = str(tmp_path / "spk.dvmd")
        assert run(["enroll-map", "--corpus", corpus, *ubm, "--out", spk]) == 0
        files = {"--speakers": spk, "--tv": ivector_models["tv"],
                 "--plda": ivector_models["plda"]}
        reads = ["--speakers"] if backend == "map" else ["--tv", "--plda"]
        out = tmp_path / "scores.txt"
        capsys.readouterr()
        assert run(["score-speaker", "--corpus", corpus, *ubm, "--backend", backend,
                    *(x for f in (*reads, flag) for x in (f, files[f])),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert flag in err and f"--backend {backend}" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("condition", ["TC_IC", "TC-XX"])
    def test_condition_is_one_of_the_three(self, tmp_path, condition):
        code, out, err = _evaluate(str(tmp_path), condition=condition)
        assert code == 1 and out == "", (code, err)
        assert err.startswith("digitsv evaluate: ") and "usage: " in err, err
        assert repr(condition) in err and "TC-IC" in err, err


class TestSpeakerFlow:
    def test_map_scoring_and_report(self, work, tmp_path, capsys):
        models, corpus = work["models"], work["corpus"]
        spk = f"{models}/spk.dvmd"
        scores = str(tmp_path / "scores.txt")
        assert run(["enroll-map", "--corpus", corpus, "--source", "dnn",
                    "--mlp", f"{models}/mlp.dvmd", "--pgmm", f"{models}/pgmm.dvmd",
                    "--out", spk]) == 0
        assert run(["score-speaker", "--corpus", corpus, "--source", "dnn",
                    "--mlp", f"{models}/mlp.dvmd", "--pgmm", f"{models}/pgmm.dvmd",
                    "--speakers", spk, "--out", scores]) == 0
        with open(scores) as fh:
            lines = fh.read().splitlines()
        trials = open(f"{corpus}/corpus/trials/trials.txt").read().splitlines()
        assert len(lines) == len(trials)
        assert all(len(l.split()) == 3 for l in lines)
        capsys.readouterr()
        assert run(["evaluate", "--trials", f"{corpus}/corpus/trials/trials.txt",
                    "--scores", scores, "--condition", "TC-IC"]) == 0
        out = capsys.readouterr().out
        assert "TC-IC" in out and "minDCF08" in out and "minDCF10" in out

    def test_source_mismatch_rejected(self, work, tmp_path):
        # enrolling and scoring must use the same alignment source
        models, corpus = work["models"], work["corpus"]
        spk = str(tmp_path / "spk_dnn.dvmd")
        assert run(["enroll-map", "--corpus", corpus, "--source", "dnn",
                    "--mlp", f"{models}/mlp.dvmd", "--pgmm", f"{models}/pgmm.dvmd",
                    "--out", spk]) == 0
        assert run(["score-speaker", "--corpus", corpus, "--source", "gmm-hmm",
                    "--hmm", f"{models}/hmm.dvmd", "--speakers", spk,
                    "--out", str(tmp_path / "x.txt")]) == 2

    def test_gmm_hmm_source(self, work, tmp_path):
        models, corpus = work["models"], work["corpus"]
        spk = str(tmp_path / "spk_hmm.dvmd")
        scores = str(tmp_path / "scores_hmm.txt")
        assert run(["enroll-map", "--corpus", corpus, "--source", "gmm-hmm",
                    "--hmm", f"{models}/hmm.dvmd", "--out", spk]) == 0
        assert run(["score-speaker", "--corpus", corpus, "--source", "gmm-hmm",
                    "--hmm", f"{models}/hmm.dvmd", "--speakers", spk,
                    "--out", scores]) == 0

    def test_align_subcommand_roundtrip(self, work, tmp_path):
        from digitsv import formats

        models, corpus = work["models"], work["corpus"]
        utt = open(f"{corpus}/corpus/splits/test.txt").readline().split()[0]
        text = dict(
            line.split() for line in open(f"{corpus}/corpus/transcripts/transcripts.txt")
        )[utt]
        out = str(tmp_path / "a.dvpo")
        assert run(["align", "--source", "gmm-hmm", "--mode", "fb",
                    "--hmm", f"{models}/hmm.dvmd",
                    "--feats", f"{corpus}/corpus/feats/{utt}.dvfe",
                    "--transcript", text, "--out", out]) == 0
        matrix = formats.read_dvpo(out, expect_states=33)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-3)
        assert run(["align", "--source", "dnn", "--mlp", f"{models}/mlp.dvmd",
                    "--feats", f"{corpus}/corpus/feats/{utt}.dvfe",
                    "--mode", "viterbi", "--out", out]) == 0
        hard = formats.read_dvpo(out, expect_states=33)
        assert set(np.unique(hard)) <= {0.0, 1.0}


class TestExternalAlignmentFlow:
    def test_train_pgmm_from_dvpo_files(self, work, tmp_path):
        """Any external 33-state aligner can feed the pipeline through DVPO."""
        models, corpus = work["models"], work["corpus"]
        align_dir = tmp_path / "aligns"
        align_dir.mkdir()
        for line in open(f"{corpus}/corpus/splits/enroll.txt"):
            utt = line.split()[0]
            assert run(["align", "--source", "dnn", "--mlp", f"{models}/mlp.dvmd",
                        "--feats", f"{corpus}/corpus/feats/{utt}.dvfe",
                        "--out", str(align_dir / f"{utt}.dvpo")]) == 0
        out = str(tmp_path / "pgmm_ext.dvmd")
        assert run(["train-pgmm", "--corpus", corpus, "--align-dir", str(align_dir),
                    "--components", "2", "--em-iterations", "1", "--out", out]) == 0
        from digitsv import formats

        pgmm = formats.load_model(out, "pgmm")
        assert pgmm.n_mixtures == 60

    def test_dnn_hmm_viterbi_alignment(self, work, tmp_path):
        models, corpus = work["models"], work["corpus"]
        utt = open(f"{corpus}/corpus/splits/test.txt").readline().split()[0]
        text = dict(
            line.split() for line in open(f"{corpus}/corpus/transcripts/transcripts.txt")
        )[utt]
        out = str(tmp_path / "hy.dvpo")
        assert run(["align", "--source", "dnn-hmm", "--mode", "viterbi",
                    "--hmm", f"{models}/hmm.dvmd", "--mlp", f"{models}/mlp.dvmd",
                    "--feats", f"{corpus}/corpus/feats/{utt}.dvfe",
                    "--transcript", text, "--out", out]) == 0
        from digitsv import formats

        hard = formats.read_dvpo(out, expect_states=33)
        assert set(np.unique(hard)) <= {0.0, 1.0}
        # monotone path through the digits of the prompt
        states = hard.argmax(axis=1)
        digits = [s // 3 for s in states if s < 30]
        assert "".join(dict.fromkeys(str(d) for d in digits)) == \
            "".join(dict.fromkeys(text))

    def test_config_file_drives_stage(self, work, tmp_path):
        corpus = work["corpus"]
        cfg = tmp_path / "cfg"
        cfg.write_text("hmm_components=2\nseed=0\n")
        out = str(tmp_path / "hmm_cfg.dvmd")
        assert run(["train-hmm", "--corpus", corpus, "--config", str(cfg),
                    "--out", out]) == 0
        from digitsv import formats

        hmms = formats.load_model(out, "hmm_set")
        assert hmms.n_components == 2


class TestContentFlow:
    def test_score_and_evaluate(self, work, tmp_path, capsys):
        models, corpus = work["models"], work["corpus"]
        out = str(tmp_path / "kl.txt")
        assert run(["score-content", "--corpus", corpus,
                    "--hmm", f"{models}/hmm.dvmd", "--mlp", f"{models}/mlp.dvmd",
                    "--level", "digit", "--epsilon", "1e-5", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert all(len(l.split()) == 3 for l in lines)
        capsys.readouterr()
        assert run(["evaluate", "--trials", f"{corpus}/corpus/trials/trials.txt",
                    "--scores", out, "--condition", "TC-TW", "--content"]) == 0
        assert "TC-TW" in capsys.readouterr().out


def _ivector_chain(work, root, source, background, aligner=None):
    """Each enrollment utterance's statistics, then TV, i-vectors and PLDA, through the CLI.

    ``aligner`` flags, when given, align every utterance first; ``accumulate-stats``
    gets only the ``background`` flags, as the benchmark passes them.
    """
    corpus = work["corpus"]
    stats = root / "stats"
    for utt in _split_utts(corpus, "enroll"):
        feats = f"{corpus}/corpus/feats/{utt}.dvfe"
        align = ["--align", str(root / f"{utt}.dvpo")] if aligner else []
        if aligner:
            assert run(["align", "--source", source, *aligner, "--feats", feats,
                        "--out", align[1]]) == 0
        assert run(["accumulate-stats", "--source", source, *background, *align,
                    "--feats", feats, "--out", str(stats / f"{utt}.dvst")]) == 0
    tv, plda, ivecs = str(root / "tv.dvmd"), str(root / "plda.dvmd"), str(root / "iv.dviv")
    flags = ["--source", source, *(aligner or []), *background]
    assert run(["train-tv", *flags, "--stats-dir", str(stats), "--rank", "8",
                "--iterations", "3", "--out", tv]) == 0
    assert run(["extract-ivector", "--tv", tv, "--stats-dir", str(stats),
                "--out", ivecs]) == 0
    assert run(["train-backend", "--ivectors", ivecs,
                "--utt2spk", f"{corpus}/corpus/splits/enroll.txt",
                "--lda-dim", "4", "--out", plda]) == 0
    return {"tv": tv, "plda": plda, "stats": str(stats), "ivectors": ivecs, "flags": flags}


@pytest.fixture(scope="module")
def ivector_models(work, tmp_path_factory):
    """Total-variability and PLDA models of the ubm source."""
    return _ivector_chain(work, tmp_path_factory.mktemp("ivector"), "ubm",
                          ["--ubm", f"{work['models']}/ubm.dvmd"])


@pytest.fixture(scope="module")
def dnn_ivector_models(work, tmp_path_factory):
    """Total-variability and PLDA models of the dnn source."""
    models = work["models"]
    return _ivector_chain(work, tmp_path_factory.mktemp("dnn_ivector"), "dnn",
                          ["--pgmm", f"{models}/pgmm.dvmd"], ["--mlp", f"{models}/mlp.dvmd"])


class TestIvectorFlow:
    def test_stats_tv_backend_scoring(self, work, ivector_models, tmp_path):
        models, corpus = work["models"], work["corpus"]
        scores = str(tmp_path / "iv_scores.txt")
        assert run(["score-speaker", "--corpus", corpus, "--source", "ubm",
                    "--ubm", f"{models}/ubm.dvmd", "--backend", "ivector",
                    "--tv", ivector_models["tv"], "--plda", ivector_models["plda"],
                    "--out", scores]) == 0
        assert len(open(scores).read().splitlines()) > 0

    def test_source_mismatch_rejected(self, work, dnn_ivector_models, tmp_path, capsys):
        # a TV model trained on dnn statistics cannot score the dnn-hmm source
        models = work["models"]
        capsys.readouterr()
        assert run(["score-speaker", "--corpus", work["corpus"], "--backend", "ivector",
                    "--source", "dnn-hmm", "--hmm", f"{models}/hmm.dvmd",
                    "--mlp", f"{models}/mlp.dvmd", "--pgmm", f"{models}/pgmm.dvmd",
                    "--tv", dnn_ivector_models["tv"], "--plda", dnn_ivector_models["plda"],
                    "--out", str(tmp_path / "iv.txt")]) == 2
        _assert_error_line(capsys, "'dnn-hmm'", "'dnn'")


    def test_statistics_of_another_source_rejected(self, work, dnn_ivector_models,
                                                   tmp_path, capsys):
        # dnn-hmm statistics have the dnn layout; the file's background id tells them apart
        models, corpus = work["models"], work["corpus"]
        utt = _split_utts(corpus, "enroll")[0]
        feats = f"{corpus}/corpus/feats/{utt}.dvfe"
        transcript = dict(line.split() for line in
                          open(f"{corpus}/corpus/transcripts/transcripts.txt"))[utt]
        align, stats = str(tmp_path / "a.dvpo"), tmp_path / "stats" / f"{utt}.dvst"
        assert run(["align", "--source", "dnn-hmm", "--hmm", f"{models}/hmm.dvmd",
                    "--mlp", f"{models}/mlp.dvmd", "--feats", feats,
                    "--transcript", transcript, "--out", align]) == 0
        assert run(["accumulate-stats", "--source", "dnn-hmm", "--feats", feats,
                    "--align", align, "--pgmm", f"{models}/pgmm.dvmd",
                    "--out", str(stats)]) == 0
        capsys.readouterr()
        assert run(["train-tv", *dnn_ivector_models["flags"], "--stats", str(stats),
                    "--rank", "1", "--out", str(tmp_path / "tv.dvmd")]) == 2
        _assert_error_line(capsys, "'dnn-hmm'", "'dnn'")
        assert run(["extract-ivector", "--tv", dnn_ivector_models["tv"], "--stats", str(stats),
                    "--out", str(tmp_path / "iv.dviv")]) == 2
        _assert_error_line(capsys, "'dnn-hmm'", "'dnn'")
        assert not (tmp_path / "tv.dvmd").exists() and not (tmp_path / "iv.dviv").exists()

    def test_version_2_statistics_rejected(self, ivector_models, tmp_path, capsys):
        # a version 2 file: the same header, then (N, F, S) records
        from digitsv import formats

        name = sorted(os.listdir(ivector_models["stats"]))[0]
        st = formats.read_dvst(os.path.join(ivector_models["stats"], name))
        mixtures, dim = st.f.shape
        old = tmp_path / name
        old.write_bytes(b"DVST" + (2).to_bytes(2, "little") + mixtures.to_bytes(4, "little")
                        + dim.to_bytes(4, "little") + (3).to_bytes(2, "little") + b"ubm"
                        + np.hstack([st.n[:, None], st.f, np.zeros_like(st.f)]).astype("<f8").tobytes())
        capsys.readouterr()
        assert run(["extract-ivector", "--tv", ivector_models["tv"], "--stats", str(old),
                    "--out", str(tmp_path / "iv.dviv")]) == 2
        assert capsys.readouterr().err == "error: unsupported DVST version 2\n"
        assert not (tmp_path / "iv.dviv").exists()


class TestWarnings:
    """A warning reaches stderr as one `warning: ...` line; the model is still saved."""

    @staticmethod
    def _warning_lines(err):
        assert ".py:" not in err, err
        return [line for line in err.splitlines() if line.startswith("warning: ")]

    def test_train_mlp_below_prior_baseline(self, work, tmp_path, capsys):
        out = tmp_path / "mlp.dvmd"
        capsys.readouterr()
        assert run(["train-mlp", "--corpus", work["corpus"], "--hmm",
                    f"{work['models']}/hmm.dvmd", "--hidden", "8", "--epochs", "1",
                    "--out", str(out)]) == 0
        err = capsys.readouterr().err
        warned = self._warning_lines(err)
        assert len(warned) == 1 and "did not beat the prior baseline" in warned[0], err
        assert all(line.startswith(("warning: ", "progress ")) for line in err.splitlines())
        assert out.exists()

    def test_train_pgmm_empty_state(self, work, tmp_path, capsys, monkeypatch):
        import warnings

        from digitsv import pipeline
        from digitsv.errors import EmptyStateWarning

        train = pipeline.train_phonetic_gmms

        def starved(*args):
            warnings.warn("states [4] received no occupancy; left unchanged",
                          EmptyStateWarning)
            return train(*args)

        monkeypatch.setattr(pipeline, "train_phonetic_gmms", starved)
        out = tmp_path / "pgmm.dvmd"
        capsys.readouterr()
        assert run(["train-pgmm", "--corpus", work["corpus"], "--mlp",
                    f"{work['models']}/mlp.dvmd", "--components", "2",
                    "--em-iterations", "1", "--out", str(out)]) == 0
        assert self._warning_lines(capsys.readouterr().err) == [
            "warning: states [4] received no occupancy; left unchanged"]
        assert out.exists()


class TestExtractFeats:
    def test_wav_to_all_kinds(self, tmp_path):
        rng = np.random.default_rng(0)
        wav = str(tmp_path / "a.wav")
        write_wav(wav, AudioClip((1000 * rng.standard_normal(8000)).astype(np.int16)))
        for kind, dim in (("fbank", 120), ("mfcc", 60), ("spliced", 1320)):
            out = str(tmp_path / f"{kind}.dvfe")
            assert run(["extract-feats", "--wav", wav, "--kind", kind,
                        "--out", out]) == 0
            assert formats.read_dvfe(out).dim == dim


class TestConfig:
    def test_parse_and_types(self):
        overrides = parse_config_lines([
            "relevance = 7.5", "ubm_components=64", "# comment",
            "class_level=state",
        ])
        assert overrides == {"relevance": 7.5, "ubm_components": 64,
                             "class_level": "state"}

    def test_unknown_key_rejected(self):
        with pytest.raises(DigitsvError, match="unknown key 'not_a_key'"):
            parse_config_lines(["not_a_key=1"])

    def test_flags_win_over_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("relevance=7.5\nlda_dim=12\n")
        cfg = load_config(str(path), {"relevance": 2.0, "lda_dim": None})
        assert cfg.relevance == 2.0   # flag wins
        assert cfg.lda_dim == 12      # file fills the gap

    def test_defaults_match_published_setup(self):
        cfg = PipelineConfig()
        assert cfg.ubm_components == 512
        assert cfg.hmm_components == 16
        assert cfg.ivector_rank == 400
        assert cfg.relevance == 5.0
        assert cfg.epsilon == 1e-5
        assert cfg.class_level == "digit"
        assert cfg.mlp_hidden_dims == (512, 512, 512, 512)

    def test_dcf_params_parse_and_validate(self):
        cfg = PipelineConfig()
        p08 = cfg.dcf_params("sre08")
        assert (p08.c_miss, p08.c_fa, p08.p_target) == (10.0, 1.0, 0.01)
        p10 = cfg.dcf_params("sre10")
        assert (p10.c_miss, p10.c_fa, p10.p_target) == (1.0, 1.0, 0.001)
        with pytest.raises(DigitsvError, match="bad dcf_sre08 value"):
            PipelineConfig(dcf_sre08="10,1")

    @pytest.mark.parametrize("stage", ["synth", "extract-feats", "accumulate-stats",
                                       "extract-ivector"])
    def test_stages_without_settings_reject_the_flag(self, stage_argv, tmp_path, capsys, stage):
        # a stage that reads no PipelineConfig has no --config to ignore
        config = tmp_path / "bad.cfg"
        config.write_text("not_a_key=1\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([*stage_argv[stage], "--config", str(config), "--out", str(out)]) == 1
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage, flag", [
        ("synth", ["--noise-scale", "1.0"]), ("extract-feats", ["--context", "5"]),
        ("extract-feats", ["--no-cmvn"]), ("train-tv", ["--silence-policy", "none"]),
        ("accumulate-stats", ["--mlp", "mlp.dvmd"]), ("evaluate", ["--dcf", "sre08"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_removed_flags_are_unknown(self, stage_argv, tmp_path, capsys, stage, flag):
        # each stage accepted its flag until the flag was removed
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([*stage_argv[stage], *flag,
                    *([] if stage == "evaluate" else ["--out", str(out)])]) == 1
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag[0]}" in captured.err and not captured.out
        assert not out.exists()


@pytest.fixture
def stage_argv(work, ivector_models, tmp_path):
    """A valid command line, but for ``--out``, of each stage the flag tests run."""
    models, corpus = work["models"], work["corpus"]
    wav = str(tmp_path / "a.wav")
    write_wav(wav, AudioClip(1000 * np.random.default_rng(0).standard_normal(8000)))
    (tmp_path / "trials").write_bytes(_TRIALS)
    (tmp_path / "scores").write_bytes(_SCORES)
    ubm = ["--source", "ubm", "--ubm", f"{models}/ubm.dvmd"]
    utt = _split_utts(corpus, "enroll")[0]
    return {
        "synth": ["synth", "--speakers", "2", "--test-per-speaker", "1"],
        "extract-feats": ["extract-feats", "--wav", wav, "--kind", "mfcc"],
        "accumulate-stats": ["accumulate-stats", *ubm,
                             "--feats", f"{corpus}/corpus/feats/{utt}.dvfe"],
        "extract-ivector": ["extract-ivector", "--tv", ivector_models["tv"],
                            "--stats-dir", ivector_models["stats"]],
        "train-tv": ["train-tv", *ubm, "--rank", "2", "--stats-dir", ivector_models["stats"]],
        "evaluate": ["evaluate", "--trials", str(tmp_path / "trials"),
                     "--scores", str(tmp_path / "scores"), "--condition", "TC-IC"],
    }


def _split_utts(corpus, split):
    return [line.split()[0] for line in open(f"{corpus}/corpus/splits/{split}.txt")]


class TestCliMatchesLibrary:
    """The subcommands and the pipeline calls behind them give the same bytes."""

    def test_ivector_chain_scores(self, work, dnn_ivector_models, tmp_path):
        from digitsv import formats, pipeline
        from digitsv.corpus import read_corpus, trials_path
        from digitsv.eval_trials import load_trials

        models, corpus = work["models"], work["corpus"]
        tv, plda = dnn_ivector_models["tv"], dnn_ivector_models["plda"]
        scores = str(tmp_path / "iv.txt")
        assert run(["score-speaker", "--corpus", corpus, "--backend", "ivector",
                    *dnn_ivector_models["flags"], "--tv", tv, "--plda", plda,
                    "--out", scores]) == 0

        disk = read_corpus(corpus)
        trials = load_trials(trials_path(corpus))
        system = pipeline.SpeakerSystem("dnn", pipeline.AlignerModels(
            mlp=formats.load_model(f"{models}/mlp.dvmd", "mlp"),
            pgmm=formats.load_model(f"{models}/pgmm.dvmd", "pgmm")))
        want = pipeline.score_ivector_trials(disk, trials, system, formats.load_model(tv, "tv"),
                                             formats.load_model(plda, "plda_backend"))
        got = [line.split()[2] for line in open(scores)]
        assert got == [f"{score:.10g}" for score in want]

    @pytest.mark.parametrize("mode,source", [("gmm", "gmm-hmm"), ("hybrid", "dnn-hmm")])
    def test_score_content_modes(self, work, tmp_path, mode, source):
        from digitsv import formats, pipeline
        from digitsv.content_kl import content_verify
        from digitsv.corpus import read_corpus, trials_path
        from digitsv.eval_trials import load_trials

        models, corpus = work["models"], work["corpus"]
        out = str(tmp_path / "kl.txt")
        assert run(["score-content", "--corpus", corpus, "--hmm-mode", mode,
                    "--hmm", f"{models}/hmm.dvmd", "--mlp", f"{models}/mlp.dvmd",
                    "--out", out]) == 0

        disk = read_corpus(corpus)
        loaded = pipeline.AlignerModels(hmms=formats.load_model(f"{models}/hmm.dvmd", "hmm_set"),
                                        mlp=formats.load_model(f"{models}/mlp.dvmd", "mlp"))
        want = {}
        for t in load_trials(trials_path(corpus)):
            if (t.utterance, t.prompt) not in want:
                feats = disk.by_id(t.utterance).feats
                dnn = pipeline.align("dnn", loaded, feats, None)
                forced = pipeline.align(source, loaded, feats, t.prompt)
                want[t.utterance, t.prompt] = f"{content_verify(forced, dnn, 'digit', 1e-5):.10g}"
        for line in open(out):
            trial_id, kl, _ = line.split()
            _, utt, prompt = trial_id.split(":")
            assert kl == want[utt, prompt], trial_id

    def test_accumulate_stats_from_dvpo(self, work, tmp_path):
        from digitsv import formats, pipeline
        from digitsv.pgmm import accumulate_stats, mixture_posteriors

        models, corpus = work["models"], work["corpus"]
        loaded = pipeline.AlignerModels(
            hmms=formats.load_model(f"{models}/hmm.dvmd", "hmm_set"),
            mlp=formats.load_model(f"{models}/mlp.dvmd", "mlp"),
            pgmm=formats.load_model(f"{models}/pgmm.dvmd", "pgmm"),
            ubm=formats.load_model(f"{models}/ubm.dvmd", "diag_gmm"))
        utt = _split_utts(corpus, "test")[0]
        text = dict(
            line.split() for line in open(f"{corpus}/corpus/transcripts/transcripts.txt")
        )[utt]
        feats_path = f"{corpus}/corpus/feats/{utt}.dvfe"
        feats = formats.read_dvfe(feats_path)
        hmm, mlp = ["--hmm", f"{models}/hmm.dvmd"], ["--mlp", f"{models}/mlp.dvmd"]
        pgmm = ["--pgmm", f"{models}/pgmm.dvmd"]
        aligners = {"gmm-hmm": hmm, "dnn": mlp, "dnn-hmm": hmm + mlp, "ubm": None}
        backgrounds = {"gmm-hmm": hmm, "dnn": pgmm, "dnn-hmm": pgmm,
                       "ubm": ["--ubm", f"{models}/ubm.dvmd"]}
        for source, aligner in aligners.items():
            align, out = str(tmp_path / f"{source}.dvpo"), str(tmp_path / f"{source}.dvst")
            align_flags = []
            if aligner:
                assert run(["align", "--source", source, *aligner, "--feats", feats_path,
                            "--transcript", text, "--out", align]) == 0
                align_flags = ["--align", align]
            assert run(["accumulate-stats", "--source", source, *backgrounds[source],
                        *align_flags, "--feats", feats_path, "--out", out]) == 0
            model = {"gmm-hmm": loaded.hmms, "ubm": loaded.ubm}.get(source, loaded.pgmm)
            gammas = mixture_posteriors(model, formats.read_dvpo(align, 33) if aligner else None,
                                        feats)
            bg = pipeline.SpeakerSystem(source, loaded).background
            want = accumulate_stats(gammas, feats, bg.means, bg.model_id)
            got = formats.read_dvst(out)
            for field in ("n", "f"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    # the settings the work fixture passes as flags
    TRAIN_CONFIG = PipelineConfig(hmm_components=2, mlp_hidden="64,64", mlp_epochs=6,
                                  pgmm_components=2, pgmm_em_iterations=2, ubm_components=8)

    @staticmethod
    def _assert_same_bytes(work, tmp_path, name, model):
        formats.save_model(str(tmp_path / "lib.dvmd"), model)
        assert (tmp_path / "lib.dvmd").read_bytes() == \
            open(f"{work['models']}/{name}.dvmd", "rb").read()

    def test_train_hmm_model(self, work, tmp_path):
        from digitsv import formats, pipeline
        from digitsv.corpus import read_corpus

        hmms = pipeline.train_hmms(read_corpus(work["corpus"]), self.TRAIN_CONFIG)
        self._assert_same_bytes(work, tmp_path, "hmm", hmms)

    def test_train_mlp_model(self, work, tmp_path):
        from digitsv import formats, pipeline
        from digitsv.corpus import read_corpus

        hmms = formats.load_model(f"{work['models']}/hmm.dvmd", "hmm_set")
        mlp = pipeline.train_classifier(read_corpus(work["corpus"]), self.TRAIN_CONFIG, hmms)
        self._assert_same_bytes(work, tmp_path, "mlp", mlp)

    def test_train_pgmm_model(self, work, tmp_path):
        from digitsv import formats, pipeline
        from digitsv.corpus import read_corpus
        from digitsv.neural_aligner import mlp_posteriors

        mlp = formats.load_model(f"{work['models']}/mlp.dvmd", "mlp")
        pgmm = pipeline.train_phonetic_gmms(read_corpus(work["corpus"]), self.TRAIN_CONFIG,
                                            lambda utt: mlp_posteriors(mlp, utt.feats))
        self._assert_same_bytes(work, tmp_path, "pgmm", pgmm)

    def test_train_ubm_model(self, work, tmp_path):
        from digitsv import formats, pipeline
        from digitsv.corpus import read_corpus

        ubm = pipeline.train_ubm(read_corpus(work["corpus"]), self.TRAIN_CONFIG)
        self._assert_same_bytes(work, tmp_path, "ubm", ubm)


def _fbank_stream(utt):
    """A 120-dim stand-in for a filterbank stream: the corpus MFCC, tiled."""
    from digitsv.features import FeatureKind, FeatureSequence

    return FeatureSequence(np.tile(utt.feats.frames, (1, 2)), FeatureKind.FBANK120)


def _spliced_stream(utt):
    from digitsv.features import splice

    return splice(_fbank_stream(utt), 5)


class TestClassifierStream:
    """`train-mlp --dnn-feats-dir` trains on its own stream and keeps that stream's kind."""

    @staticmethod
    def _train(work, tmp_path, stream_of, *flags):
        """train-mlp on a directory holding ``stream_of(utt)`` for every corpus utterance."""
        from digitsv import formats
        from digitsv.corpus import read_corpus

        feats_dir = tmp_path / "dnn_feats"
        feats_dir.mkdir()
        for utt in read_corpus(work["corpus"]).utterances:
            formats.write_dvfe(str(feats_dir / f"{utt.utt_id}.dvfe"), stream_of(utt))
        out = tmp_path / "mlp.dvmd"
        code = run(["train-mlp", "--corpus", work["corpus"],
                    "--hmm", f"{work['models']}/hmm.dvmd", "--dnn-feats-dir", str(feats_dir),
                    "--hidden", "8", "--epochs", "1", *flags, "--out", str(out)])
        return code, feats_dir, out

    @pytest.mark.parametrize("stream_of, kind, dim", [
        (_spliced_stream, "spliced", 1320),
        (_fbank_stream, "fbank120", 120),
    ], ids=["spliced", "fbank120"])
    def test_model_takes_the_stream_kind(self, work, tmp_path, stream_of, kind, dim):
        from digitsv import formats

        code, feats_dir, out = self._train(work, tmp_path, stream_of)
        assert code == 0
        mlp = formats.load_model(str(out), "mlp")
        assert (mlp.input_kind.value, mlp.input_dim) == (kind, dim)
        # the model accepts its own stream
        utt = _split_utts(work["corpus"], "test")[0]
        assert run(["align", "--source", "dnn", "--mlp", str(out),
                    "--dnn-feats", str(feats_dir / f"{utt}.dvfe"),
                    "--out", str(tmp_path / "a.dvpo")]) == 0

    def test_mixed_widths(self, work, tmp_path, capsys):
        first = _split_utts(work["corpus"], "enroll")[0]
        code, _, out = self._train(work, tmp_path, lambda utt: (
            _fbank_stream(utt) if utt.utt_id == first else _spliced_stream(utt)))
        assert code == 2
        _assert_error_line(capsys, "1320-dim spliced", "120-dim fbank120")
        assert not out.exists()

    def test_per_utterance_length_mismatch(self, work, tmp_path, capsys):
        # two utterances off by one frame in opposite directions: the totals agree
        from dataclasses import replace

        first, second = _split_utts(work["corpus"], "enroll")[:2]

        def stream_of(utt):
            feats = _fbank_stream(utt)
            if utt.utt_id == first:
                return replace(feats, frames=feats.frames[:-1])
            if utt.utt_id == second:
                return replace(feats, frames=np.vstack([feats.frames, feats.frames[-1:]]))
            return feats

        code, _, out = self._train(work, tmp_path, stream_of)
        assert code == 2
        _assert_error_line(capsys, first, "frames")
        assert not out.exists()


class TestSilencePolicyConfig:
    """A `silence_policy` config key reaches every stage that aligns."""

    @staticmethod
    def _outputs(tmp_path, argv, policy):
        """Output bytes of ``argv`` with the policy from a file, from a flag and unset."""
        config = tmp_path / "cfg"
        config.write_text(f"silence_policy={policy}\n")
        outs = {}
        for name, flags in {"file": ["--config", str(config)],
                            "flag": ["--silence-policy", policy], "default": []}.items():
            out = tmp_path / f"{name}.out"
            assert run([*argv, *flags, "--out", str(out)]) == 0
            outs[name] = out.read_bytes()
        return outs

    def test_train_mlp(self, work, tmp_path):
        # the synthetic corpus has no pauses between digits, so the labels of
        # ends_only equal those of the default and only file == flag is visible
        outs = self._outputs(tmp_path, [
            "train-mlp", "--corpus", work["corpus"], "--hmm", f"{work['models']}/hmm.dvmd",
            "--hidden", "8", "--epochs", "1"], "ends_only")
        assert outs["file"] == outs["flag"]

    def test_align(self, work, tmp_path):
        utt = _split_utts(work["corpus"], "test")[0]
        text = dict(
            line.split() for line in open(f"{work['corpus']}/corpus/transcripts/transcripts.txt")
        )[utt]
        outs = self._outputs(tmp_path, [
            "align", "--source", "gmm-hmm", "--hmm", f"{work['models']}/hmm.dvmd",
            "--feats", f"{work['corpus']}/corpus/feats/{utt}.dvfe", "--transcript", text],
            "none")
        assert outs["file"] == outs["flag"] != outs["default"]

    def test_bad_value_in_file(self, work, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_text("silence_policy=bogus\n")
        capsys.readouterr()
        assert run(["score-content", "--corpus", work["corpus"], "--config", str(config),
                    "--hmm", f"{work['models']}/hmm.dvmd", "--mlp", f"{work['models']}/mlp.dvmd",
                    "--out", str(tmp_path / "kl.txt")]) == 2
        _assert_error_line(capsys, "silence_policy", "bogus")


def _times(factor):
    return lambda array: factor * array


def _first_column(value):
    """A feature matrix with its first column set to ``value``."""
    def edit(frames):
        frames = frames.copy()
        frames[:, 0] = value
        return frames
    return edit


def _tv_variances(edit):
    """A TV payload's background with its variances replaced by ``edit`` of them."""
    return lambda p: {**p["background"], "variances": edit(p["background"]["variances"])}


class TestBadInputs:
    """Bad files end in exit code 2, never in a traceback."""

    @pytest.fixture
    def loads(self, work, ivector_models, tmp_path):
        """Per DVMD kind: a valid file, and a command that loads ``bad.dvmd`` in its place."""
        models, corpus = work["models"], work["corpus"]
        utt = _split_utts(corpus, "test")[0]
        text = dict(
            line.split() for line in open(f"{corpus}/corpus/transcripts/transcripts.txt")
        )[utt]
        feats = f"{corpus}/corpus/feats/{utt}.dvfe"
        align = str(tmp_path / "a.dvpo")
        assert run(["align", "--source", "dnn", "--mlp", f"{models}/mlp.dvmd",
                    "--feats", feats, "--out", align]) == 0
        speakers = str(tmp_path / "spk.dvmd")
        assert run(["enroll-map", "--corpus", corpus, "--source", "ubm",
                    "--ubm", f"{models}/ubm.dvmd", "--out", speakers]) == 0
        trials = tmp_path / "trials.txt"
        trials.write_text("".join(open(f"{corpus}/corpus/trials/trials.txt").readlines()[:4]))
        bad = str(tmp_path / "bad.dvmd")
        ubm_scoring = ["score-speaker", "--corpus", corpus, "--trials", str(trials),
                       "--source", "ubm", "--ubm", f"{models}/ubm.dvmd"]
        return bad, {
            "diag_gmm": (f"{models}/ubm.dvmd",
                         ["accumulate-stats", "--source", "ubm", "--ubm", bad,
                          "--feats", feats]),
            "hmm_set": (f"{models}/hmm.dvmd",
                        ["align", "--source", "gmm-hmm", "--hmm", bad, "--feats", feats,
                         "--transcript", text]),
            "pgmm": (f"{models}/pgmm.dvmd",
                     ["accumulate-stats", "--source", "dnn", "--pgmm", bad,
                      "--align", align, "--feats", feats]),
            "mlp": (f"{models}/mlp.dvmd",
                    ["align", "--source", "dnn", "--mlp", bad, "--feats", feats]),
            "speaker_models": (speakers, [*ubm_scoring, "--speakers", bad]),
            "tv": (ivector_models["tv"],
                   ["extract-ivector", "--tv", bad, "--stats-dir", ivector_models["stats"]]),
            "plda_backend": (ivector_models["plda"],
                             [*ubm_scoring, "--backend", "ivector",
                              "--tv", ivector_models["tv"], "--plda", bad]),
        }

    @pytest.mark.parametrize("container", ["diag_gmm", "hmm_set", "pgmm", "mlp",
                                           "speaker_models", "tv", "plda_backend"])
    def test_flipped_bytes_in_model(self, loads, tmp_path, capsys, container):
        # each mutation exits 2 with one error line and nothing before it, or
        # exits 0 without a warning
        bad, commands = loads
        original, argv = commands[container]
        data = open(original, "rb").read()
        rng = np.random.default_rng(0)
        failures = []
        for k in range(100):
            mangled = bytearray(data)
            for pos in rng.integers(6, len(data), size=rng.integers(1, 4)):
                mangled[pos] ^= int(rng.integers(1, 256))
            with open(bad, "wb") as fh:
                fh.write(bytes(mangled))
            capsys.readouterr()
            code = run([*argv, "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if not (code == 2 and err.startswith("error: ") and err.count("\n") == 1
                    or code == 0 and "warning:" not in err):
                failures.append((k, code, err))
        assert not failures, failures

    @pytest.mark.parametrize("container", ["diag_gmm", "hmm_set", "pgmm"])
    def test_negative_mixture_weights(self, loads, tmp_path, capsys, container):
        # (1.5, -0.5) sums to 1; one row of the model gets it
        bad, commands = loads
        original, argv = commands[container]
        _, payload = formats.read_dvmd(original, container)
        row = payload["weights"].reshape(-1, payload["weights"].shape[-1])[-1]
        row[:] = 0.0
        row[:2] = (1.5, -0.5)
        formats.write_dvmd(bad, container, payload)
        capsys.readouterr()
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        _assert_error_line(capsys, f"invalid {container} payload", "nonnegative")

    # a field the model's own checks reject: arrays that do not fit its other arrays,
    # lists where arrays belong, or arrays of the right shape that no model may hold
    MISSHAPEN = {
        "mlp-input-mean": ("mlp", "input_mean", lambda p: np.zeros(2)),
        "mlp-input-std": ("mlp", "input_std", lambda p: p["input_std"][:-1]),
        "mlp-class-priors": ("mlp", "class_priors", lambda p: p["class_priors"][:-1]),
        "mlp-bias": ("mlp", "biases", lambda p: [b[:-1] for b in p["biases"]]),
        "mlp-unchained": ("mlp", "weights", lambda p: [p["weights"][0], *(
            w[:-1] for w in p["weights"][1:])]),
        "mlp-weight-lists": ("mlp", "weights", lambda p: [w.tolist() for w in p["weights"]]),
        "plda-mean": ("plda_backend", "mean", lambda p: p["mean"][:-3]),
        "plda-between": ("plda_backend", "between", lambda p: p["between"][:, :-1]),
        "plda-lda-vector": ("plda_backend", "lda", lambda p: p["lda"][:, 0]),
        "plda-within-zero": ("plda_backend", "within", lambda p: np.zeros_like(p["within"])),
        "plda-between-negative-identity": ("plda_backend", "between",
                                           lambda p: -np.eye(len(p["between"]))),
        "tv-variances-short": ("tv", "background", _tv_variances(lambda v: v[:, :-1])),
        "tv-variances-zero": ("tv", "background", _tv_variances(np.zeros_like)),
        "tv-variances-negated": ("tv", "background", _tv_variances(np.negative)),
    }

    @pytest.mark.parametrize("case", sorted(MISSHAPEN))
    def test_misshapen_array(self, loads, tmp_path, capsys, case):
        container, field, edit = self.MISSHAPEN[case]
        bad, commands = loads
        original, argv = commands[container]
        _, payload = formats.read_dvmd(original, container)
        formats.write_dvmd(bad, container, {**payload, field: edit(payload)})
        capsys.readouterr()
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        _assert_error_line(capsys, f"invalid {container} payload")

    # one value of each DVMD tag type but an array and a float
    OTHER_TYPES = {"int": 3, "str": "abc", "list": [1.5, 2.5], "dict": {"k": 1.5},
                   "None": None}

    @pytest.mark.parametrize("container", ["diag_gmm", "hmm_set", "pgmm", "mlp",
                                           "speaker_models", "tv", "plda_backend"])
    def test_field_of_another_type(self, loads, tmp_path, capsys, container):
        bad, commands = loads
        original, argv = commands[container]
        _, payload = formats.read_dvmd(original, container)
        # (field, its value, the payload with the field set to another value)
        cases = [(key, payload[key], lambda v, k=key: {**payload, k: v}) for key in payload]
        if container == "tv":
            bg = payload["background"]
            cases += [(f"background.{key}", bg[key],
                       lambda v, k=key: {**payload, "background": {**bg, k: v}}) for key in bg]
        failures = []
        for field, held, edit in cases:
            for name, value in self.OTHER_TYPES.items():
                if type(held) is type(value):
                    continue
                formats.write_dvmd(bad, container, edit(value))
                capsys.readouterr()
                try:
                    code = run([*argv, "--out", str(tmp_path / "out")])
                except Exception as exc:  # a traceback: every one is listed below
                    failures.append((field, name, repr(exc)))
                    continue
                err = capsys.readouterr().err
                if code != 0 and not (code == 2 and err.startswith("error: ")
                                      and err.count("\n") == 1):
                    failures.append((field, name, code, err))
        assert not failures, failures

    @pytest.mark.parametrize("defect", sorted(ROSTER_DEFECTS))
    def test_corrupt_speaker_roster(self, work, tmp_path, capsys, defect):
        models, corpus = work["models"], work["corpus"]
        ubm = formats.load_model(f"{models}/ubm.dvmd", "diag_gmm")
        means = np.broadcast_to(ubm.means, (3, *ubm.means.shape)).copy()
        bad = str(tmp_path / "spk.dvmd")
        formats.write_dvmd(bad, "speaker_models",
                           ROSTER_DEFECTS[defect](roster_payload(["s000", "s001", "s002"],
                                                                 means)))
        capsys.readouterr()
        assert run(["score-speaker", "--corpus", corpus, "--source", "ubm",
                    "--ubm", f"{models}/ubm.dvmd", "--speakers", bad,
                    "--out", str(tmp_path / "out")]) == 2
        _assert_error_line(capsys, "invalid speaker_models payload")

    def test_train_tv_on_overflowing_statistics(self, work, ivector_models, tmp_path,
                                                capsys):
        # finite statistics, one utterance's scaled by 1e300: the TV precisions
        # overflow, which is one error line naming the stage, with no warning before it
        stats_dir = tmp_path / "stats"
        stats_dir.mkdir()
        for k, name in enumerate(sorted(os.listdir(ivector_models["stats"]))):
            st = formats.read_dvst(os.path.join(ivector_models["stats"], name))
            scale = 1e300 if k == 0 else 1.0
            formats.write_dvst(stats_dir / name,
                               SuffStats(scale * st.n, scale * st.f, st.background_id))
        out = tmp_path / "tv.dvmd"
        capsys.readouterr()
        assert run(["train-tv", "--source", "ubm", "--ubm", f"{work['models']}/ubm.dvmd",
                    "--stats-dir", str(stats_dir), "--rank", "4", "--iterations", "2",
                    "--out", str(out)]) == 2
        _assert_error_line(capsys, "train-tv")
        assert not out.exists()

    def test_train_backend_on_overflowing_ivectors(self, work, ivector_models, tmp_path,
                                                   capsys):
        # finite i-vectors, one scaled by 1e300: the LDA scatter overflows
        entries = formats.read_dviv(ivector_models["ivectors"])
        entries[0] = (entries[0][0], 1e300 * entries[0][1])
        ivecs = tmp_path / "iv.dviv"
        formats.write_dviv(ivecs, entries)
        out = tmp_path / "plda.dvmd"
        capsys.readouterr()
        assert run(["train-backend", "--ivectors", str(ivecs),
                    "--utt2spk", f"{work['corpus']}/corpus/splits/enroll.txt",
                    "--lda-dim", "4", "--out", str(out)]) == 2
        _assert_error_line(capsys, "train-backend")
        assert not out.exists()

    def test_enroll_map_on_overflowing_features(self, work, tmp_path, capsys):
        # finite features, one enrollment utterance's scaled by 1e18: its alignment
        # overflows, which is one error line naming the stage
        corpus = str(tmp_path / "c")
        shutil.copytree(work["corpus"], corpus)
        path = f"{corpus}/corpus/feats/{_split_utts(corpus, 'enroll')[0]}.dvfe"
        feats = formats.read_dvfe(path)
        formats.write_dvfe(path, FeatureSequence(1e18 * feats.frames, feats.kind))
        out = tmp_path / "spk.dvmd"
        capsys.readouterr()
        assert run(["enroll-map", "--corpus", corpus, "--source", "gmm-hmm",
                    "--hmm", f"{work['models']}/hmm.dvmd", "--out", str(out)]) == 2
        _assert_error_line(capsys, "enroll-map")
        assert not out.exists()

    def test_singular_plda(self, loads, tmp_path, capsys):
        # finite, but the between-speaker covariance scaled by 1e300 makes the
        # scorer's system singular: one error line naming the stage
        bad, commands = loads
        original, argv = commands["plda_backend"]
        _, payload = formats.read_dvmd(original, "plda_backend")
        formats.write_dvmd(bad, "plda_backend", {**payload, "between": 1e300 * payload["between"]})
        capsys.readouterr()
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        _assert_error_line(capsys, "score-speaker", "Singular matrix")

    @pytest.fixture(scope="class")
    def overflow_chain(self, work, ivector_models, tmp_path_factory):
        """Model paths by role, and a trial list of the first test utterance alone."""
        models, corpus = work["models"], work["corpus"]
        root = tmp_path_factory.mktemp("overflow")
        paths = {"hmm_set": f"{models}/hmm.dvmd", "mlp": f"{models}/mlp.dvmd",
                 "diag_gmm": f"{models}/ubm.dvmd", "tv": ivector_models["tv"],
                 "plda_backend": ivector_models["plda"],
                 "speaker_models": str(root / "ubm-speakers.dvmd"),
                 "gmm-hmm speakers": str(root / "gmm-hmm-speakers.dvmd")}
        assert run(["enroll-map", "--corpus", corpus, "--source", "ubm",
                    "--ubm", paths["diag_gmm"], "--out", paths["speaker_models"]]) == 0
        assert run(["enroll-map", "--corpus", corpus, "--source", "gmm-hmm",
                    "--hmm", paths["hmm_set"], "--out", paths["gmm-hmm speakers"]]) == 0
        utt = _split_utts(corpus, "test")[0]
        trials = root / "trials.txt"
        trials.write_text("".join(line for line in open(f"{corpus}/corpus/trials/trials.txt")
                                  if line.split()[1] == utt))
        return paths, str(trials), ivector_models["stats"]

    @staticmethod
    def _overflow_argv(command, corpus, trials, paths, stats):
        ubm = ["--source", "ubm", "--ubm", paths["diag_gmm"]]
        return {
            "score-speaker --source gmm-hmm": [
                "score-speaker", "--corpus", corpus, "--trials", trials, "--source", "gmm-hmm",
                "--hmm", paths["hmm_set"], "--speakers", paths["gmm-hmm speakers"]],
            "score-speaker --source ubm": [
                "score-speaker", "--corpus", corpus, "--trials", trials, *ubm,
                "--speakers", paths["speaker_models"]],
            "score-speaker --backend ivector": [
                "score-speaker", "--corpus", corpus, "--trials", trials, *ubm,
                "--backend", "ivector", "--tv", paths["tv"], "--plda", paths["plda_backend"]],
            "score-content --hmm-mode gmm": [
                "score-content", "--corpus", corpus, "--trials", trials, "--hmm-mode", "gmm",
                "--hmm", paths["hmm_set"], "--mlp", paths["mlp"]],
            "enroll-map --source gmm-hmm": [
                "enroll-map", "--corpus", corpus, "--source", "gmm-hmm",
                "--hmm", paths["hmm_set"]],
            "extract-ivector": ["extract-ivector", "--tv", paths["tv"], "--stats-dir", stats],
        }[command]

    # Inputs every reader accepts, whose arithmetic overflows or whose linear algebra
    # fails inside the stage: (command, the first utterance of a split or a model
    # field, the edit).  Outside `cli_dispatch`'s floating-point boundary the first
    # seven write NaN scores, the enroll-map ones end in a ValueError and the next
    # three print overflow warnings before their error line.
    OVERFLOWS = {
        "gmm-hmm-test-feats-1e18": ("score-speaker --source gmm-hmm", "test", _times(1e18)),
        "gmm-hmm-test-feats-1e30": ("score-speaker --source gmm-hmm", "test", _times(1e30)),
        "content-gmm-test-feats-1e18": ("score-content --hmm-mode gmm", "test", _times(1e18)),
        "content-gmm-test-feats-1e30": ("score-content --hmm-mode gmm", "test", _times(1e30)),
        "content-gmm-test-feats-3e38-column": ("score-content --hmm-mode gmm", "test",
                                               _first_column(3e38)),
        "ubm-roster-means-1e300": ("score-speaker --source ubm",
                                   ("speaker_models", "means"), _times(1e300)),
        "ivector-plda-mean-1e300": ("score-speaker --backend ivector",
                                    ("plda_backend", "mean"), _times(1e300)),
        "enroll-gmm-hmm-feats-1e18": ("enroll-map --source gmm-hmm", "enroll", _times(1e18)),
        "enroll-gmm-hmm-feats-1e30": ("enroll-map --source gmm-hmm", "enroll", _times(1e30)),
        "enroll-gmm-hmm-feats-3e38-column": ("enroll-map --source gmm-hmm", "enroll",
                                             _first_column(3e38)),
        "gmm-hmm-hmm-means-1e150": ("score-speaker --source gmm-hmm",
                                    ("hmm_set", "means"), _times(1e150)),
        "gmm-hmm-hmm-variances-1e-300": ("score-speaker --source gmm-hmm",
                                         ("hmm_set", "variances"), _times(1e-300)),
        "ivector-lda-1e300": ("score-speaker --backend ivector", ("plda_backend", "lda"),
                              _times(1e300)),
        "ivector-plda-between-1e300": ("score-speaker --backend ivector",
                                       ("plda_backend", "between"), _times(1e300)),
        "ivector-plda-within-1e-300": ("score-speaker --backend ivector",
                                       ("plda_backend", "within"), _times(1e-300)),
        "extract-ivector-tv-matrix-1e200": ("extract-ivector", ("tv", "matrix"), _times(1e200)),
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    def test_overflow_is_one_error_line(self, work, overflow_chain, tmp_path, capsys, case):
        command, target, edit = self.OVERFLOWS[case]
        paths, trials, stats = overflow_chain
        paths, corpus = dict(paths), work["corpus"]
        if isinstance(target, str):  # the first utterance of that split
            corpus = str(tmp_path / "c")
            shutil.copytree(work["corpus"], corpus)
            path = f"{corpus}/corpus/feats/{_split_utts(corpus, target)[0]}.dvfe"
            feats = formats.read_dvfe(path)
            formats.write_dvfe(path, FeatureSequence(edit(feats.frames), feats.kind))
        else:
            kind, field = target
            _, payload = formats.read_dvmd(paths[kind], kind)
            paths[kind] = str(tmp_path / "bad.dvmd")
            formats.write_dvmd(paths[kind], kind, {**payload, field: edit(payload[field])})
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([*self._overflow_argv(command, corpus, trials, paths, stats),
                    "--out", str(out)]) == 2
        _assert_error_line(capsys, f"error: {command.split()[0]}: ")
        assert not out.exists()

    @pytest.mark.parametrize("length", ["short", "long"])
    def test_misaligned_dvpo(self, work, tmp_path, capsys, length):
        # one enrollment utterance's alignment 3 frames off its features
        models, corpus = work["models"], work["corpus"]
        utts = _split_utts(corpus, "enroll")
        for utt in utts:
            assert run(["align", "--source", "dnn", "--mlp", f"{models}/mlp.dvmd",
                        "--feats", f"{corpus}/corpus/feats/{utt}.dvfe",
                        "--out", str(tmp_path / f"{utt}.dvpo")]) == 0
        path = str(tmp_path / f"{utts[1]}.dvpo")
        matrix = formats.read_dvpo(path, 33)
        formats.write_dvpo(path, matrix[:-3] if length == "short"
                           else np.vstack([matrix, matrix[-3:]]))
        for iterations in ("1", "0"):
            capsys.readouterr()
            assert run(["train-pgmm", "--corpus", corpus, "--align-dir", str(tmp_path),
                        "--components", "2", "--em-iterations", iterations,
                        "--out", str(tmp_path / "pgmm.dvmd")]) == 2
            _assert_error_line(capsys, utts[1], f"({matrix.shape[0]}, 33)")

    @pytest.mark.parametrize("state_ids", [np.arange(3), np.arange(30)[::-1]],
                             ids=["three states", "reversed"])
    def test_pgmm_state_ids_not_the_digit_states(self, work, tmp_path, capsys, state_ids):
        # every producer writes the digit states 0..29 in order, one row each
        models, corpus = work["models"], work["corpus"]
        _, payload = formats.read_dvmd(f"{models}/pgmm.dvmd", "pgmm")
        bad = str(tmp_path / "pgmm.dvmd")
        formats.write_dvmd(bad, "pgmm", {"state_ids": state_ids, **{
            key: payload[key][:len(state_ids)] for key in ("weights", "means", "variances")}})
        utt = _split_utts(corpus, "enroll")[0]
        feats = f"{corpus}/corpus/feats/{utt}.dvfe"
        align = str(tmp_path / "a.dvpo")
        assert run(["align", "--source", "dnn", "--mlp", f"{models}/mlp.dvmd",
                    "--feats", feats, "--out", align]) == 0
        for argv in (["accumulate-stats", "--source", "dnn", "--align", align, "--feats", feats],
                     ["enroll-map", "--corpus", corpus, "--source", "dnn-hmm",
                      "--hmm", f"{models}/hmm.dvmd", "--mlp", f"{models}/mlp.dvmd"]):
            capsys.readouterr()
            assert run([*argv, "--pgmm", bad, "--out", str(tmp_path / "out")]) == 2, argv
            _assert_error_line(capsys, "state_ids", "0..29")

    @pytest.fixture
    def text_corpus(self, tmp_path):
        """The text files of a two-utterance corpus; no feature files."""
        root = tmp_path / "c"
        for sub, name, text in (("transcripts", "transcripts.txt", "u1 123\nu2 456\n"),
                                ("splits", "enroll.txt", "u1 s1\n"),
                                ("splits", "test.txt", "u2 s1\n")):
            (root / "corpus" / sub).mkdir(parents=True, exist_ok=True)
            (root / "corpus" / sub / name).write_text(text)
        return root

    @pytest.mark.parametrize("path, text", [
        ("transcripts/transcripts.txt", "u1 123 extra\nu2 456\n"),
        ("splits/enroll.txt", "u1 s1 extra\n"),
        ("splits/test.txt", "u2\n"),
        ("transcripts/transcripts.txt", "u1 123\n"),
        ("splits/enroll.txt", ""),
    ], ids=["transcript-fields", "enroll-split-fields", "test-split-fields",
            "missing-transcript", "empty-enroll-split"])
    def test_malformed_corpus_text(self, text_corpus, tmp_path, capsys, path, text):
        (text_corpus / "corpus" / path).write_text(text)
        assert run(["train-ubm", "--corpus", str(text_corpus),
                    "--out", str(tmp_path / "ubm.dvmd")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_synth_features_beyond_float32(self, tmp_path, capsys):
        # DVFE stores f32: a corpus it cannot hold is refused before any
        # features file is made, naming the file, not written as infinities
        out = tmp_path / "big"
        assert run(["synth", "--out", str(out), "--speakers", "2", "--test-per-speaker", "1",
                    "--separation", "1e39", "--seed", "1"]) == 2
        _assert_error_line(capsys, str(out / "corpus" / "feats"), ".dvfe", "float32")
        assert not any((out / "corpus" / "feats").iterdir())

    def test_malformed_utt2spk(self, tmp_path, capsys):
        ivecs = str(tmp_path / "iv.dviv")
        formats.write_dviv(ivecs, [("u1", np.ones(3))])
        utt2spk = tmp_path / "utt2spk"
        utt2spk.write_text("u1 s1 extra\n")
        assert run(["train-backend", "--ivectors", ivecs, "--utt2spk", str(utt2spk),
                    "--out", str(tmp_path / "plda.dvmd")]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_utt2spk_without_an_utterance(self, tmp_path, capsys):
        ivecs = str(tmp_path / "iv.dviv")
        formats.write_dviv(ivecs, [("u1", np.ones(3)), ("u7", np.ones(3))])
        utt2spk = tmp_path / "utt2spk"
        utt2spk.write_text("u1 s1\n")
        assert run(["train-backend", "--ivectors", ivecs, "--utt2spk", str(utt2spk),
                    "--out", str(tmp_path / "plda.dvmd")]) == 2
        _assert_error_line(capsys, str(utt2spk), "'u7'")

    @pytest.mark.parametrize("stage", ["train-tv", "extract-ivector"])
    def test_stats_dir_without_statistics(self, stage_argv, tmp_path, capsys, stage):
        # an empty directory is bad data; no statistics flag at all stays a usage error
        argv = stage_argv[stage][:-2]  # without its trailing --stats-dir
        empty, out = tmp_path / "stats", str(tmp_path / "out")
        empty.mkdir()
        capsys.readouterr()
        assert run([*argv, "--stats-dir", str(empty), "--out", out]) == 2
        _assert_error_line(capsys, str(empty), ".dvst")
        assert run([*argv, "--out", out]) == 1
        assert "no statistics files given" in capsys.readouterr().err


class TestRepeatedIds:
    """An id repeated in a corpus text file, or an utterance in both splits, exits 2."""

    @staticmethod
    def _copy(work, tmp_path):
        import shutil

        corpus = str(tmp_path / "c")
        shutil.copytree(work["corpus"], corpus)
        return corpus

    def _enroll_fails(self, work, corpus, tmp_path, capsys, *words):
        capsys.readouterr()
        assert run(["enroll-map", "--corpus", corpus, "--source", "ubm",
                    "--ubm", f"{work['models']}/ubm.dvmd",
                    "--out", str(tmp_path / "spk.dvmd")]) == 2
        _assert_error_line(capsys, *words)
        assert not (tmp_path / "spk.dvmd").exists()

    @pytest.mark.parametrize("name", ["splits/enroll.txt", "splits/test.txt",
                                      "transcripts/transcripts.txt"])
    def test_repeated_line(self, work, tmp_path, capsys, name):
        corpus = self._copy(work, tmp_path)
        path = f"{corpus}/corpus/{name}"
        lines = open(path).read().splitlines()
        with open(path, "a") as fh:
            fh.write(f"{lines[0]}\n")
        self._enroll_fails(work, corpus, tmp_path, capsys,
                           f"{path} line {len(lines) + 1}:", lines[0].split()[0], "repeated")

    def test_second_transcript_for_an_id(self, work, tmp_path, capsys):
        corpus = self._copy(work, tmp_path)
        path = f"{corpus}/corpus/transcripts/transcripts.txt"
        lines = open(path).read().splitlines()
        utt = lines[2].split()[0]
        with open(path, "w") as fh:
            fh.writelines(f"{line}\n" for line in [*lines[:3], f"{utt} 0000", *lines[3:]])
        self._enroll_fails(work, corpus, tmp_path, capsys, f"{path} line 4:", utt, "repeated")

    def test_utterance_in_both_splits(self, work, tmp_path, capsys):
        corpus = self._copy(work, tmp_path)
        enroll = f"{corpus}/corpus/splits/enroll.txt"
        test = f"{corpus}/corpus/splits/test.txt"
        first = open(enroll).readline()
        with open(test, "a") as fh:
            fh.write(first)
        self._enroll_fails(work, corpus, tmp_path, capsys, test, first.split()[0],
                           "enroll split")

    def test_repeated_utt2spk_line(self, work, ivector_models, tmp_path, capsys):
        utt2spk = tmp_path / "utt2spk"
        lines = open(f"{work['corpus']}/corpus/splits/enroll.txt").read().splitlines()
        utt = lines[1].split()[0]
        utt2spk.write_text("".join(f"{line}\n" for line in [*lines, f"{utt} other"]))
        capsys.readouterr()
        assert run(["train-backend", "--ivectors", ivector_models["ivectors"],
                    "--utt2spk", str(utt2spk), "--lda-dim", "4",
                    "--out", str(tmp_path / "plda.dvmd")]) == 2
        _assert_error_line(capsys, f"{utt2spk} line {len(lines) + 1}:", utt, "repeated")


class TestBadTrials:
    """A trial list naming what the corpus or the models lack ends in exit 2."""

    @pytest.fixture(scope="class")
    def ubm_speakers(self, work, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("spk") / "spk.dvmd")
        assert run(["enroll-map", "--corpus", work["corpus"], "--source", "ubm",
                    "--ubm", f"{work['models']}/ubm.dvmd", "--out", out]) == 0
        return out

    def _bad_trials(self, work, tmp_path, speaker=None, utterance=None):
        first = open(f"{work['corpus']}/corpus/trials/trials.txt").readline()
        spk, utt, prompt, category = first.split()
        path = tmp_path / "trials.txt"
        path.write_text(f"{first}{speaker or spk} {utterance or utt} {prompt} {category}\n")
        return str(path)

    def _assert_one_line_error(self, capsys, *words):
        err = capsys.readouterr().err
        assert err.startswith("error: trial 2 ") and err.count("\n") == 1, err
        assert all(w in err for w in words), err

    @pytest.mark.parametrize("backend", ["map", "ivector"])
    @pytest.mark.parametrize("bad", [{"speaker": "nobody"}, {"utterance": "no_such_utt"}],
                             ids=["unknown-speaker", "unknown-utterance"])
    def test_score_speaker(self, work, ivector_models, ubm_speakers, tmp_path, capsys,
                           backend, bad):
        models = work["models"]
        flags = (["--speakers", ubm_speakers] if backend == "map" else
                 ["--tv", ivector_models["tv"], "--plda", ivector_models["plda"]])
        capsys.readouterr()
        assert run(["score-speaker", "--corpus", work["corpus"], "--source", "ubm",
                    "--ubm", f"{models}/ubm.dvmd", "--backend", backend, *flags,
                    "--trials", self._bad_trials(work, tmp_path, **bad),
                    "--out", str(tmp_path / "scores.txt")]) == 2
        self._assert_one_line_error(capsys, *bad.values())

    def test_test_only_speaker_is_not_enrolled(self, work, tmp_path, capsys):
        # an impostor named only in the test split gets no model, and a trial
        # claiming that speaker fails on the speaker, not on the enrollment
        import shutil

        corpus = str(tmp_path / "c")
        shutil.copytree(work["corpus"], corpus)
        enroll = f"{corpus}/corpus/splits/enroll.txt"
        lines = open(enroll).read().splitlines()
        impostor = lines[-1].split()[1]
        with open(enroll, "w") as fh:
            fh.writelines(f"{line}\n" for line in lines if line.split()[1] != impostor)
        trials = tmp_path / "trials.txt"
        trials.write_text(next(line for line in open(f"{corpus}/corpus/trials/trials.txt")
                               if line.split()[0] == impostor))
        ubm, speakers = ["--ubm", f"{work['models']}/ubm.dvmd"], str(tmp_path / "spk.dvmd")
        assert run(["enroll-map", "--corpus", corpus, "--source", "ubm", *ubm,
                    "--out", speakers]) == 0
        kept = sorted({line.split()[1] for line in lines} - {impostor})
        assert list(formats.load_model(speakers, "speaker_models").ids) == kept
        capsys.readouterr()
        assert run(["score-speaker", "--corpus", corpus, "--source", "ubm", *ubm,
                    "--speakers", speakers, "--trials", str(trials),
                    "--out", str(tmp_path / "scores.txt")]) == 2
        _assert_error_line(capsys, impostor, "no enrolled model")

    def test_train_hmm_reads_no_trials(self, work, tmp_path):
        # only the scoring stages read the corpus trial list
        import shutil

        corpus = str(tmp_path / "c")
        shutil.copytree(work["corpus"], corpus)
        with open(f"{corpus}/corpus/trials/trials.txt", "wb") as fh:
            fh.write(b"\xff not a trial\n")
        assert run(["train-hmm", "--corpus", corpus, "--components", "2",
                    "--out", str(tmp_path / "hmm.dvmd")]) == 0

    def test_score_content_unknown_utterance(self, work, tmp_path, capsys):
        models = work["models"]
        capsys.readouterr()
        assert run(["score-content", "--corpus", work["corpus"],
                    "--hmm", f"{models}/hmm.dvmd", "--mlp", f"{models}/mlp.dvmd",
                    "--trials", self._bad_trials(work, tmp_path, utterance="no_such_utt"),
                    "--out", str(tmp_path / "kl.txt")]) == 2
        self._assert_one_line_error(capsys, "no_such_utt")

    def test_evaluate_empty_condition(self, tmp_path, capsys):
        trials, scores = tmp_path / "trials.txt", tmp_path / "scores.txt"
        trials.write_text("")
        scores.write_text("")
        assert run(["evaluate", "--trials", str(trials), "--scores", str(scores),
                    "--condition", "TC-IC"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def _assert_error_line(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(w in err for w in words), err


class TestBadSizes:
    """A rank below 1 or a negative iteration count is a data error, not a model."""

    @pytest.mark.parametrize("flags, words", [
        (["--rank", "-1"], ["ivector_rank", "-1"]),
        (["--rank", "0"], ["ivector_rank", "0"]),
        (["--rank", "4", "--iterations", "-1"], ["tv_iterations", "-1"]),
    ], ids=["negative-rank", "zero-rank", "negative-iterations"])
    def test_train_tv(self, work, ivector_models, tmp_path, capsys, flags, words):
        out = tmp_path / "tv.dvmd"
        capsys.readouterr()
        assert run(["train-tv", "--source", "ubm", "--ubm", f"{work['models']}/ubm.dvmd",
                    "--stats-dir", ivector_models["stats"], *flags,
                    "--out", str(out)]) == 2
        _assert_error_line(capsys, *words)
        assert not out.exists()

    def test_train_tv_config_file(self, work, ivector_models, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_text("ivector_rank=4\ntv_iterations=-3\n")
        capsys.readouterr()
        assert run(["train-tv", "--source", "ubm", "--ubm", f"{work['models']}/ubm.dvmd",
                    "--stats-dir", ivector_models["stats"], "--config", str(config),
                    "--out", str(tmp_path / "tv.dvmd")]) == 2
        _assert_error_line(capsys, "tv_iterations", "-3")

    def test_train_backend_negative_iterations(self, work, ivector_models, tmp_path, capsys):
        capsys.readouterr()
        assert run(["train-backend", "--ivectors", ivector_models["ivectors"],
                    "--utt2spk", f"{work['corpus']}/corpus/splits/enroll.txt",
                    "--lda-dim", "4", "--plda-iterations", "-1",
                    "--out", str(tmp_path / "plda.dvmd")]) == 2
        _assert_error_line(capsys, "plda_iterations", "-1")

    def test_train_pgmm_negative_iterations(self, work, tmp_path, capsys):
        capsys.readouterr()
        assert run(["train-pgmm", "--corpus", work["corpus"],
                    "--mlp", f"{work['models']}/mlp.dvmd", "--em-iterations", "-2",
                    "--out", str(tmp_path / "pgmm.dvmd")]) == 2
        _assert_error_line(capsys, "pgmm_em_iterations", "-2")

    @staticmethod
    def _inputs(work, command):
        models = work["models"]
        return ["--corpus", work["corpus"], *{
            "train-hmm": [],
            "train-ubm": [],
            "train-pgmm": ["--mlp", f"{models}/mlp.dvmd"],
            "train-mlp": ["--hmm", f"{models}/hmm.dvmd"],
            "enroll-map": ["--source", "ubm", "--ubm", f"{models}/ubm.dvmd"],
            "score-content": ["--hmm", f"{models}/hmm.dvmd", "--mlp", f"{models}/mlp.dvmd"],
        }[command]]

    @pytest.mark.parametrize("command, flag, value, key", [
        ("train-hmm", "--components", "3", "hmm_components"),
        ("train-hmm", "--components", "0", "hmm_components"),
        ("train-ubm", "--components", "3", "ubm_components"),
        ("train-ubm", "--components", "0", "ubm_components"),
        ("train-pgmm", "--components", "3", "pgmm_components"),
        ("train-pgmm", "--components", "0", "pgmm_components"),
        ("train-mlp", "--epochs", "0", "mlp_epochs"),
        ("enroll-map", "--relevance", "-1", "relevance"),
        ("score-content", "--epsilon", "0", "epsilon"),
        ("score-content", "--epsilon", "-1", "epsilon"),
    ])
    def test_size_flags(self, work, tmp_path, capsys, command, flag, value, key):
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([command, *self._inputs(work, command), flag, value,
                    "--out", str(out)]) == 2
        _assert_error_line(capsys, key, value)
        assert not out.exists()

    @pytest.mark.parametrize("command, line", [
        ("train-hmm", "hmm_components=6"),
        ("train-ubm", "ubm_components=-8"),
        ("train-pgmm", "pgmm_components=12"),
        ("train-mlp", "mlp_epochs=0"),
        ("train-mlp", "mlp_batch_size=0"),
        ("enroll-map", "relevance=0"),
        ("enroll-map", "relevance=nan"),
        ("score-content", "epsilon=-0.5"),
    ])
    def test_size_config_files(self, work, tmp_path, capsys, command, line):
        config = tmp_path / "cfg"
        config.write_text(f"{line}\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([command, *self._inputs(work, command), "--config", str(config),
                    "--out", str(out)]) == 2
        _assert_error_line(capsys, *line.split("="))
        assert not out.exists()

    @pytest.mark.parametrize("size", [1, 2, 64, 512])
    def test_powers_of_two_accepted(self, size):
        cfg = PipelineConfig(hmm_components=size, ubm_components=size, pgmm_components=size)
        assert (cfg.hmm_components, cfg.ubm_components, cfg.pgmm_components) == (size,) * 3


class TestNumpyOnlyRuntime:
    def test_cli_import_loads_no_scipy(self):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import digitsv.cli; "
                "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "", done.stdout

    def test_evaluate_loads_no_numpy_ma(self, tmp_path):
        # np.unique's masked-array check imports numpy.ma, about 1 MB resident
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        for role in ("trials", "scores"):
            (tmp_path / role).write_bytes(_VALID[role])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
                "eager = 'numpy.ma' in sys.modules; from digitsv import cli; "
                "code = cli.cli_dispatch(['evaluate', '--trials', sys.argv[2], '--scores', "
                "sys.argv[3], '--condition', 'TC-IC', '--condition', 'TC-TW']); "
                "print(code, eager, 'numpy.ma' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code, src, str(tmp_path / "trials"),
                               str(tmp_path / "scores")], capture_output=True, text=True,
                              check=True)
        code, eager, loaded = done.stdout.split()[-3:]
        if eager == "True":
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert (code, loaded) == ("0", "False"), done.stdout


_TRIALS = b"s1 u1 123 TC\ns1 u2 456 IC\ns2 u3 789 TC\ns2 u4 123 IC\ns1 u3 789 TW\n"
_SCORES = b"s1 u1 1.5\ns1 u2 -0.5\ns2 u3 0.25\ns2 u4 0.75\ns1 u3 0.1\n"
_CONFIG = b"lda_dim=3\ndcf_sre08=10,1,0.01\n# comment\ntv_iterations=2\n"
_VALID = {"trials": _TRIALS, "scores": _SCORES, "config": _CONFIG}


def _evaluate(root, condition="TC-IC", **files):
    """``evaluate`` on the given file bytes (valid ones otherwise); (code, stdout, stderr)."""
    paths = {}
    for role, valid in _VALID.items():
        paths[role] = os.path.join(root, role)
        with open(paths[role], "wb") as fh:
            fh.write(files.get(role, valid))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["evaluate", "--trials", paths["trials"], "--scores", paths["scores"],
                    "--config", paths["config"], "--condition", condition])
    return code, out.getvalue(), err.getvalue()


class TestTextInputs:
    """Trials, config and score files that are not UTF-8 text, or not files, exit 2."""

    @pytest.mark.parametrize("role", sorted(_VALID))
    def test_non_utf8_byte(self, tmp_path, role):
        code, _, err = _evaluate(str(tmp_path), **{role: _VALID[role][:5] + b"\xff" +
                                                   _VALID[role][5:]})
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err

    def test_train_tv_non_utf8_config(self, stage_argv, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_bytes(b"ivector_rank=4\xff\n")
        capsys.readouterr()
        assert run([*stage_argv["train-tv"], "--config", str(config),
                    "--out", str(tmp_path / "tv.dvmd")]) == 2
        _assert_error_line(capsys, "utf-8")

    def test_config_is_directory(self, tmp_path, capsys):
        for role, data in _VALID.items():
            (tmp_path / role).write_bytes(data)
        capsys.readouterr()
        assert run(["evaluate", "--trials", str(tmp_path / "trials"),
                    "--scores", str(tmp_path / "scores"), "--config", str(tmp_path),
                    "--condition", "TC-IC"]) == 2
        _assert_error_line(capsys, str(tmp_path))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_score(self, tmp_path, raw):
        # a NaN target would count as accepted at every threshold
        code, _, err = _evaluate(str(tmp_path), scores=_SCORES.replace(b"1.5", raw.encode()))
        assert code == 2 and err == f"error: {tmp_path}/scores line 1: bad score '{raw}'\n", err

    def test_valid_files_evaluate(self, tmp_path):
        code, out, _ = _evaluate(str(tmp_path))
        assert code == 0 and "TC-IC" in out


_TOKENS = ["s1", "s2", "u1", "u3", "123", "7", "0", "TC", "IC", "TW", "IW", "XX", "#",
           "=", ",", "1.5", "-2", "nan", "inf", "-inf", "1e999", "0x1p3", "lda_dim",
           "lda_dim=3", "tv_iterations=-1", "ivector_rank=0", "class_level=state",
           "dcf_sre08=10,1,0.01", "dcf_sre10=0,1,2", "seed=9", "\t", "\u00e9", "\u0663"]


def _mutations(valid):
    """The valid file with up to three byte ranges replaced by arbitrary bytes."""
    def apply(edits):
        data = bytearray(valid)
        for pos, cut, insert in edits:
            data[pos:pos + cut] = insert
        return bytes(data)
    return st.lists(st.tuples(st.integers(0, len(valid)), st.integers(0, 6),
                              st.binary(max_size=4)), min_size=1, max_size=3).map(apply)


def _token_lines():
    """Lines of tokens that reach the parsers' field and value checks."""
    line = st.lists(st.one_of(st.sampled_from(_TOKENS), st.text(max_size=5)),
                    max_size=5).map(" ".join)
    return st.lists(line, max_size=7).map(lambda ls: "\n".join(ls).encode("utf-8"))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


class TestTextFuzzing:
    """Fuzzed trials, config and score files: exit 0, or exit 2 with one line."""

    @pytest.mark.parametrize("role", sorted(_VALID))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_evaluate_never_crashes(self, fuzz_dir, role, data):
        content = data.draw(st.one_of(_mutations(_VALID[role]), _token_lines(),
                                      st.binary(max_size=120)))
        code, out, err = _evaluate(fuzz_dir, **{role: content})
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert "TC-IC" in out
