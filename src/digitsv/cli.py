"""Command-line pipeline: one subcommand per stage, file handoffs between.

Every stage is restartable from its on-disk inputs and deterministic under
fixed seeds.  Progress goes to stderr as `progress key=value ...` lines and
warnings as one `warning: ...` line each, results to stdout.  Exit codes:
0 success, 1 usage error, 2 data error.  A stage whose float arithmetic
overflows, is invalid or divides by zero, or whose linear algebra fails,
exits 2 with one line naming the stage; the library keeps numpy's default
error state.  `digitsv.corpus` documents the corpus directory layout.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings

import numpy as np

from . import (
    eval_trials,
    features,
    formats,
    hmm as hmm_mod,
    ivector as ivec_mod,
    neural_aligner,
    pipeline,
    synth as synth_mod,
)
from .config import load_config
from .corpus import read_corpus, read_pairs, trials_path, write_corpus
from .errors import DigitsvError, UsageError


def _progress(stage, **kv):
    parts = " ".join(f"{k}={v}" for k, v in kv.items())
    print(f"progress stage={stage} {parts}".rstrip(), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _load_models(args) -> pipeline.AlignerModels:
    return pipeline.AlignerModels(
        hmms=formats.load_model(args.hmm, "hmm_set") if getattr(args, "hmm", None) else None,
        mlp=formats.load_model(args.mlp, "mlp") if getattr(args, "mlp", None) else None,
        pgmm=formats.load_model(args.pgmm, "pgmm") if getattr(args, "pgmm", None) else None,
        ubm=formats.load_model(args.ubm, "diag_gmm") if getattr(args, "ubm", None) else None,
    )


# --- stages ------------------------------------------------------------------

def _cmd_synth(args):
    cfg = synth_mod.SynthConfig(
        n_speakers=args.speakers, n_test=args.test_per_speaker,
        speaker_scale=args.speaker_scale, mean_separation=args.separation,
        tw_mode=args.tw_mode, seed=args.seed,
    )
    corpus = synth_mod.generate_corpus(cfg)
    write_corpus(args.out, corpus)
    _progress("synth", utterances=len(corpus.utterances), trials=len(corpus.trials))
    print(args.out)
    return 0


def _cmd_extract_feats(args):
    clip = features.read_wav(args.wav)
    if args.kind == "fbank":
        feats = features.extract_fbank(clip)
    elif args.kind == "spliced":
        feats = features.splice(features.extract_fbank(clip))
    else:
        feats = features.apply_cmvn(features.extract_mfcc(clip))
    formats.write_dvfe(args.out, feats)
    _progress("extract-feats", frames=feats.n_frames, dim=feats.dim)
    print(args.out)
    return 0


def _cmd_train_hmm(args):
    cfg = load_config(args.config, {"hmm_components": args.components,
                                    "silence_policy": args.silence_policy})
    hmms = pipeline.train_hmms(read_corpus(args.corpus), cfg)
    for row in hmms.training_log:
        _progress("train-hmm", components=row["n_components"], pass_=row["pass"],
                  fb_ll=f"{row['fb_ll']:.4f}", viterbi_ll=f"{row['viterbi_ll']:.4f}")
    formats.save_model(args.out, hmms)
    print(args.out)
    return 0


def _cmd_train_ubm(args):
    cfg = load_config(args.config, {"ubm_components": args.components})
    ubm = pipeline.train_ubm(read_corpus(args.corpus), cfg)
    for size, lls in ubm.training_log:
        _progress("train-ubm", components=size, ll=f"{lls[-1]:.4f}")
    formats.save_model(args.out, ubm)
    print(args.out)
    return 0


def _cmd_train_mlp(args):
    cfg = load_config(args.config, {
        "mlp_hidden": args.hidden, "mlp_epochs": args.epochs,
        "silence_policy": args.silence_policy, "seed": args.seed,
    })
    corpus = read_corpus(args.corpus)
    hmms = formats.load_model(args.hmm, "hmm_set")
    frames_read = {}  # the progress line counts what the trainer read, per utterance

    def stream(utt):
        feats = (formats.read_dvfe(os.path.join(args.dnn_feats_dir, f"{utt.utt_id}.dvfe"))
                 if args.dnn_feats_dir else utt.feats)
        frames_read[utt.utt_id] = feats.n_frames
        return feats
    model = pipeline.train_classifier(corpus, cfg, hmms, stream)
    formats.save_model(args.out, model)
    _progress("train-mlp", frames=sum(frames_read.values()))
    print(args.out)
    return 0


def _require_flags(args, *names):
    missing = [f"--{n.replace('_', '-')}" for n in names if not getattr(args, n, None)]
    if missing:
        raise UsageError(f"{args.command}: missing {', '.join(missing)}")


def _reject_flags(args, why, *names):
    unread = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n, None)]
    if unread:
        raise UsageError(f"{args.command}: {why} does not read {', '.join(unread)}")


def _cmd_align(args):
    if args.source == "dnn":
        _require_flags(args, "mlp")
        if not (args.dnn_feats or args.feats):
            raise UsageError("align: missing --feats or --dnn-feats")
    else:
        _require_flags(args, "hmm", "feats", "transcript")
        if args.source == "dnn-hmm":
            _require_flags(args, "mlp")
        else:
            _reject_flags(args, "--source gmm-hmm", "dnn_feats")
    cfg = load_config(args.config, {"silence_policy": args.silence_policy})
    models = _load_models(args)
    feats = formats.read_dvfe(args.feats) if args.feats else None
    dnn_align = None
    if args.dnn_feats:
        dnn_align = neural_aligner.mlp_posteriors(models.mlp, formats.read_dvfe(args.dnn_feats))
    matrix = pipeline.align(args.source, models, feats, args.transcript, args.mode,
                            dnn_align, cfg.silence_policy)
    formats.write_dvpo(args.out, matrix)
    _progress("align", source=args.source, mode=args.mode, frames=matrix.shape[0])
    print(args.out)
    return 0


def _cmd_train_pgmm(args):
    cfg = load_config(args.config, {
        "pgmm_components": args.components,
        "pgmm_em_iterations": args.em_iterations,
    })
    corpus = read_corpus(args.corpus)
    if args.align_dir:
        def alignment(utt):
            return formats.read_dvpo(os.path.join(args.align_dir, f"{utt.utt_id}.dvpo"),
                                     hmm_mod.N_STATES)
    elif args.mlp:
        mlp = formats.load_model(args.mlp, "mlp")

        def alignment(utt):
            return neural_aligner.mlp_posteriors(mlp, utt.feats)
    else:
        raise UsageError("train-pgmm needs --align-dir or --mlp")
    model = pipeline.train_phonetic_gmms(corpus, cfg, alignment)
    for k, objective in enumerate(model.training_log):
        _progress("train-pgmm", iteration=k, objective=f"{objective:.4f}")
    formats.save_model(args.out, model)
    print(args.out)
    return 0


def _cmd_accumulate_stats(args):
    if args.source != "ubm":
        _require_flags(args, "align")
    else:
        _reject_flags(args, "--source ubm", "align")
    system = pipeline.SpeakerSystem(args.source, _load_models(args))
    align = None if args.source == "ubm" else formats.read_dvpo(args.align, hmm_mod.N_STATES)
    feats = formats.read_dvfe(args.feats)
    stats, _ = system.statistics(feats, align)
    formats.write_dvst(args.out, stats)
    _progress("accumulate-stats", mixtures=stats.n.shape[0], total=f"{stats.n.sum():.4f}")
    print(args.out)
    return 0


def _cmd_enroll_map(args):
    cfg = load_config(args.config, {"relevance": args.relevance,
                                    "silence_policy": args.silence_policy})
    corpus = read_corpus(args.corpus)
    system = pipeline.SpeakerSystem(args.source, _load_models(args), cfg.silence_policy)
    speakers = pipeline.enroll_speakers(corpus, system, cfg.relevance)
    formats.save_model(args.out, speakers)
    _progress("enroll-map", speakers=len(speakers))
    print(args.out)
    return 0


def _stats_paths(args):
    paths = list(args.stats or [])
    if args.stats_dir:
        paths.extend(sorted(
            os.path.join(args.stats_dir, name)
            for name in os.listdir(args.stats_dir) if name.endswith(".dvst")
        ))
        if not paths:
            raise DigitsvError(f"{args.stats_dir}: no .dvst statistics files")
    if not paths:
        raise UsageError("no statistics files given")
    return paths


def _cmd_train_tv(args):
    cfg = load_config(args.config, {"ivector_rank": args.rank,
                                    "tv_iterations": args.iterations, "seed": args.seed})
    background = pipeline.SpeakerSystem(args.source, _load_models(args)).background
    paths = _stats_paths(args)
    tv = ivec_mod.train_tv(lambda: (formats.read_dvst(p) for p in paths), background,
                           cfg.ivector_rank, iterations=cfg.tv_iterations, seed=cfg.seed)
    for k, aux in enumerate(tv.training_log):
        _progress("train-tv", iteration=k, objective=f"{aux:.4f}")
    formats.save_model(args.out, tv)
    print(args.out)
    return 0


def _cmd_extract_ivector(args):
    tv = formats.load_model(args.tv, "tv")
    entries = []
    for path in _stats_paths(args):
        stats = formats.read_dvst(path)
        utt_id = os.path.splitext(os.path.basename(path))[0]
        entries.append((utt_id, ivec_mod.extract_ivector(stats, tv)))
    formats.write_dviv(args.out, entries)
    _progress("extract-ivector", count=len(entries))
    print(args.out)
    return 0


def _cmd_train_backend(args):
    cfg = load_config(args.config, {"lda_dim": args.lda_dim,
                                    "plda_iterations": args.plda_iterations})
    entries = formats.read_dviv(args.ivectors)
    utt2spk = read_pairs(args.utt2spk)
    missing = [utt for utt, _ in entries if utt not in utt2spk]
    if missing:
        raise DigitsvError(f"{args.utt2spk}: no speaker label for utterances {missing[:5]}")
    ivectors = [iv for _, iv in entries]
    labels = [utt2spk[utt] for utt, _ in entries]
    backend = ivec_mod.train_backend(ivectors, labels, cfg.lda_dim,
                                     plda_iterations=cfg.plda_iterations)
    for k, ll in enumerate(backend.training_log):
        _progress("train-backend", iteration=k, log_likelihood=f"{ll:.4f}")
    formats.save_model(args.out, backend)
    print(args.out)
    return 0


def _write_scores(path, trials, scores):
    with formats._create(path, "w") as fh:
        for trial, score in zip(trials, scores):
            fh.write(f"{trial.speaker} {trial.utterance} {score:.10g}\n")


def _cmd_score_speaker(args):
    flags = {"map": ("speakers",), "ivector": ("tv", "plda")}
    _require_flags(args, *flags.pop(args.backend))
    _reject_flags(args, f"--backend {args.backend}", *flags.popitem()[1])  # the other backend's
    cfg = load_config(args.config, {"silence_policy": args.silence_policy})
    corpus = read_corpus(args.corpus)
    trials = eval_trials.load_trials(args.trials or trials_path(args.corpus))
    system = pipeline.SpeakerSystem(args.source, _load_models(args), cfg.silence_policy)
    if args.backend == "map":
        scores = pipeline.score_speaker_trials(corpus, trials, system,
                                               formats.load_model(args.speakers, "speaker_models"))
    else:
        scores = pipeline.score_ivector_trials(corpus, trials, system,
                                               formats.load_model(args.tv, "tv"),
                                               formats.load_model(args.plda, "plda_backend"))
    _write_scores(args.out, trials, scores)
    _progress("score-speaker", trials=len(trials), backend=args.backend)
    print(args.out)
    return 0


def _cmd_score_content(args):
    cfg = load_config(args.config, {"epsilon": args.epsilon, "class_level": args.level,
                                    "silence_policy": args.silence_policy})
    corpus = read_corpus(args.corpus)
    trials = eval_trials.load_trials(args.trials or trials_path(args.corpus))
    models = _load_models(args)
    scores = pipeline.score_content_trials(
        corpus, trials, models, level=cfg.class_level, epsilon=cfg.epsilon,
        hmm_mode=args.hmm_mode, silence_policy=cfg.silence_policy,
    )
    with formats._create(args.out, "w") as fh:
        for trial, kl in zip(trials, scores):
            trial_id = f"{trial.speaker}:{trial.utterance}:{trial.prompt}"
            fh.write(f"{trial_id} {kl:.10g} {trial.category}\n")
    _progress("score-content", trials=len(trials), level=cfg.class_level)
    print(args.out)
    return 0


def _read_score_file(path, trials, content):
    with open(path) as fh:
        lines = [line.split() for line in fh if line.strip()]
    if len(lines) != len(trials):
        raise DigitsvError(f"{path}: {len(lines)} scores for {len(trials)} trials")
    scores = []
    for no, (parts, trial) in enumerate(zip(lines, trials), start=1):
        if len(parts) != 3:
            raise DigitsvError(f"{path} line {no}: expected 3 fields")
        if content:
            expected = f"{trial.speaker}:{trial.utterance}:{trial.prompt}"
            if parts[0] != expected or parts[2] != trial.category:
                raise DigitsvError(f"{path} line {no}: does not match trial list")
            raw = parts[1]
        else:
            if parts[0] != trial.speaker or parts[1] != trial.utterance:
                raise DigitsvError(f"{path} line {no}: does not match trial list")
            raw = parts[2]
        try:
            scores.append(float(raw))
            if not math.isfinite(scores[-1]):  # a NaN target would pass every threshold
                raise ValueError
        except ValueError:
            raise DigitsvError(f"{path} line {no}: bad score {raw!r}") from None
    return scores


def _cmd_evaluate(args):
    cfg = load_config(args.config)
    trials = eval_trials.load_trials(args.trials)
    scores = _read_score_file(args.scores, trials, args.content)
    params = [cfg.dcf_params("sre08"), cfg.dcf_params("sre10")]
    rows = []
    for condition in args.condition:
        key = condition.replace("-", "_")
        eer, dcfs = eval_trials.evaluate_condition(trials, scores, key,
                                                   dcf_params=params,
                                                   negate=args.content)
        rows.append((condition, eer, dcfs))
    print(eval_trials.format_report(rows))
    return 0


# --- parser -------------------------------------------------------------------

@functools.cache  # argparse keeps no state between parses, so one parser serves them all
def _build_parser() -> _Parser:
    parser = _Parser(prog="digitsv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(name, fn, config=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if config:  # only the stages that read a PipelineConfig take the file
            p.add_argument("--config", default=None, help="key=value config file")
        return p

    p = add("synth", _cmd_synth, config=False, help="generate the synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--speakers", type=int, default=20)
    p.add_argument("--test-per-speaker", type=int, default=5)
    p.add_argument("--speaker-scale", type=float, default=0.35)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--tw-mode", choices=synth_mod.TW_MODES, default="whole_prompt")
    p.add_argument("--seed", type=int, default=42)

    p = add("extract-feats", _cmd_extract_feats, config=False, help="WAV to DVFE features")
    p.add_argument("--wav", required=True)
    p.add_argument("--kind", choices=("fbank", "mfcc", "spliced"), required=True)
    p.add_argument("--out", required=True)

    p = add("train-hmm", _cmd_train_hmm, help="train the word HMM set")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--silence-policy", choices=hmm_mod.SILENCE_POLICIES, default=None)

    p = add("train-ubm", _cmd_train_ubm, help="train the unsupervised background GMM")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--components", type=int, default=None)

    p = add("train-mlp", _cmd_train_mlp, help="train the frame classifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--hmm", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dnn-feats-dir", default=None,
                   help="classifier feature directory, <utt>.dvfe per enrollment "
                        "utterance (defaults to the corpus features)")
    p.add_argument("--hidden", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--silence-policy", choices=hmm_mod.SILENCE_POLICIES, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add("align", _cmd_align, help="align one utterance, write DVPO posteriors")
    p.add_argument("--source", choices=("gmm-hmm", "dnn", "dnn-hmm"), required=True)
    p.add_argument("--mode", choices=("fb", "viterbi"), default="fb")
    p.add_argument("--feats")
    p.add_argument("--dnn-feats", default=None)
    p.add_argument("--hmm", default=None)
    p.add_argument("--mlp", default=None)
    p.add_argument("--transcript", default=None)
    p.add_argument("--silence-policy", choices=hmm_mod.SILENCE_POLICIES, default=None)
    p.add_argument("--out", required=True)

    p = add("train-pgmm", _cmd_train_pgmm, help="train phonetic GMMs under an alignment")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--align-dir", default=None)
    p.add_argument("--mlp", default=None)
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--em-iterations", type=int, default=None)

    p = add("accumulate-stats", _cmd_accumulate_stats, config=False,
            help="Baum-Welch statistics for one utterance")
    p.add_argument("--source", choices=("gmm-hmm", "dnn", "dnn-hmm", "ubm"), required=True)
    p.add_argument("--feats", required=True)
    p.add_argument("--align", default=None)
    p.add_argument("--hmm", default=None)
    p.add_argument("--pgmm", default=None)
    p.add_argument("--ubm", default=None)
    p.add_argument("--out", required=True)

    def add_system_flags(p):
        p.add_argument("--source", choices=("gmm-hmm", "dnn", "dnn-hmm", "ubm"),
                       required=True)
        p.add_argument("--hmm", default=None)
        p.add_argument("--mlp", default=None)
        p.add_argument("--pgmm", default=None)
        p.add_argument("--ubm", default=None)

    p = add("enroll-map", _cmd_enroll_map, help="MAP-enroll speakers with enrollment utterances")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--relevance", type=float, default=None)
    p.add_argument("--silence-policy", choices=hmm_mod.SILENCE_POLICIES, default=None)
    add_system_flags(p)

    p = add("train-tv", _cmd_train_tv, help="train the total-variability subspace")
    p.add_argument("--stats", nargs="*", default=None)
    p.add_argument("--stats-dir", default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    add_system_flags(p)

    p = add("extract-ivector", _cmd_extract_ivector, config=False,
            help="extract i-vectors to a DVIV archive")
    p.add_argument("--tv", required=True)
    p.add_argument("--stats", nargs="*", default=None)
    p.add_argument("--stats-dir", default=None)
    p.add_argument("--out", required=True)

    p = add("train-backend", _cmd_train_backend, help="fit LDA and PLDA on labeled i-vectors")
    p.add_argument("--ivectors", required=True)
    p.add_argument("--utt2spk", required=True)
    p.add_argument("--lda-dim", type=int, default=None)
    p.add_argument("--plda-iterations", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("score-speaker", _cmd_score_speaker, help="score speaker trials")
    p.add_argument("--corpus", required=True)
    p.add_argument("--trials", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", choices=("map", "ivector"), default="map")
    p.add_argument("--speakers", default=None, help="speaker models (map backend)")
    p.add_argument("--tv", default=None)
    p.add_argument("--plda", default=None)
    p.add_argument("--silence-policy", choices=hmm_mod.SILENCE_POLICIES, default=None)
    add_system_flags(p)

    p = add("score-content", _cmd_score_content, help="score content trials by KL divergence")
    p.add_argument("--corpus", required=True)
    p.add_argument("--trials", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--hmm", required=True)
    p.add_argument("--mlp", required=True)
    p.add_argument("--hmm-mode", choices=("gmm", "hybrid"), default="hybrid")
    p.add_argument("--level", choices=("digit", "state"), default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--silence-policy", choices=hmm_mod.SILENCE_POLICIES, default=None)

    p = add("evaluate", _cmd_evaluate, help="EER/minDCF report from scores and trials")
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--condition", action="append", required=True,
                   choices=[c.replace("_", "-") for c in eval_trials.CONDITIONS], help="repeatable")
    p.add_argument("--content", action="store_true",
                   help="scores are KL divergences (negated for metrics)")

    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError(parser.format_usage())
        # a warning is one stderr line, not a source quote; a non-finite number
        # never leaves a stage (underflow keeps numpy's default)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                    divide="raise"):
            warnings.showwarning = _warning_line
            return args.fn(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (DigitsvError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError) as exc:  # beyond float64's reach
        print(f"error: {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
