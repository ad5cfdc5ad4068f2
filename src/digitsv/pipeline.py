"""In-memory orchestration of the full verification pipeline.

Glue between the synthetic corpus (or any utterance provider) and the
alignment/backend modules: model training at desk scale, speaker
enrollment, per-trial speaker scoring, and per-trial content scoring.
The CLI wraps the same functions around on-disk artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import content_kl, hmm as hmm_mod, map_speaker, pgmm as pgmm_mod
from .errors import ConfigInvalid, SourceMismatch
from .gmm import DiagGmm, GmmTrainConfig, train_em
from .hmm import AlignmentMatrix, HmmSet, HmmTrainConfig, compile_graph, train_hmm_set
from .ivector import extract_ivector, plda_score
from .neural_aligner import MlpModel, MlpTrainConfig, mlp_posteriors, train_mlp
from .pgmm import Background, MixturePosteriors, Pgmm, accumulate_stats
from .features import FeatureKind, FeatureSequence


@dataclass
class AlignerModels:
    hmms: HmmSet | None = None
    mlp: MlpModel | None = None
    pgmm: Pgmm | None = None
    ubm: DiagGmm | None = None


def viterbi_label_frames(hmms: HmmSet, utterances, silence_policy: str):
    """Hard-aligned (frames, state labels) from (feats, transcription) pairs."""
    frames, labels = [], []
    for feats, text in utterances:
        graph = compile_graph(text, hmms, silence_policy)
        path = hmm_mod.viterbi_align(graph, feats)
        frames.append(feats.frames)
        labels.append(path)
    return np.concatenate(frames, axis=0), np.concatenate(labels)


def train_desk_models(corpus, *, hmm_components=16, ubm_components=32,
                      pgmm_components=16, pgmm_em_iterations=4,
                      mlp_hidden=(256, 256), mlp_epochs=8,
                      silence_policy="optional_between", seed=0,
                      include=("hmms", "mlp", "pgmm", "ubm")) -> AlignerModels:
    """Train alignment models from a corpus's enrollment utterances.

    Sizes default to desk scale; the unsupervised background model is kept
    slightly below the state count so its components straddle phonetic
    units, as they do on real speech.  ``include`` limits which models are
    built (the mlp needs hmms; the pgmm needs both).
    """
    enroll_pairs = [
        (u.feats, u.content) for u in corpus.utterances if u.split == "enroll"
    ]
    models = AlignerModels()
    need_mlp = "mlp" in include or "pgmm" in include
    if "hmms" in include or need_mlp:
        models.hmms = train_hmm_set(
            enroll_pairs,
            HmmTrainConfig(target_components=hmm_components,
                           silence_policy=silence_policy, seed=seed),
        )

    frames = None
    if need_mlp:
        frames, labels = viterbi_label_frames(models.hmms, enroll_pairs, silence_policy)
        models.mlp = train_mlp(frames, labels, MlpTrainConfig(
            hidden_dims=tuple(mlp_hidden),
            epochs=mlp_epochs,
            input_kind=FeatureKind.MFCC60,
            seed=seed,
        ))

    if "pgmm" in include:
        feats_list = [feats for feats, _ in enroll_pairs]
        dnn_aligns = [mlp_posteriors(models.mlp, feats) for feats in feats_list]
        models.pgmm = pgmm_mod.train_pgmm(dnn_aligns, feats_list, pgmm_components,
                                          pgmm_em_iterations, seed)

    if "ubm" in include:
        if frames is None:
            frames = np.concatenate([f.frames for f, _ in enroll_pairs], axis=0)
        models.ubm = train_em(frames, GmmTrainConfig(target_components=ubm_components,
                                                     seed=seed))
    return models


def _need(model, name):
    if model is None:
        raise ConfigInvalid(f"alignment source requires a trained {name} model")
    return model


def align(source: str, models: AlignerModels, feats: FeatureSequence | None,
          prompt: str | None, mode: str = "fb",
          dnn_align: AlignmentMatrix | None = None,
          silence_policy: str = "optional_between") -> AlignmentMatrix:
    """State alignment of one utterance from one alignment source.

    ``dnn`` takes the classifier posteriors (``dnn_align``, or the classifier
    run on ``feats``) and ignores the prompt; ``gmm-hmm`` and ``dnn-hmm``
    align over the graph of the prompted transcription, with GMM or
    classifier scaled-likelihood emissions.  ``mode`` is ``fb`` for
    forward-backward posteriors or ``viterbi`` for the best path as 0/1 rows.
    """
    if source not in ("gmm-hmm", "dnn", "dnn-hmm"):
        raise ConfigInvalid(f"unknown alignment source {source!r}")
    if mode not in ("fb", "viterbi"):
        raise ConfigInvalid(f"unknown alignment mode {mode!r}")
    if source != "gmm-hmm" and dnn_align is None:
        dnn_align = mlp_posteriors(_need(models.mlp, "mlp"), feats)
    if source == "dnn":
        if mode == "fb":
            return dnn_align
        return hmm_mod.path_to_alignment(dnn_align.posteriors.argmax(axis=1))
    if prompt is None:
        raise ConfigInvalid(f"{source} alignment needs the prompted transcription")
    graph = compile_graph(prompt, _need(models.hmms, "hmms"), silence_policy)
    if source == "gmm-hmm":
        if mode == "fb":
            return hmm_mod.fb_align(graph, feats)
        return hmm_mod.path_to_alignment(hmm_mod.viterbi_align(graph, feats))
    priors = _need(models.mlp, "mlp").class_priors
    if mode == "fb":
        return hmm_mod.fb_align_hybrid(graph, dnn_align, priors)
    return hmm_mod.path_to_alignment(hmm_mod.viterbi_align_hybrid(graph, dnn_align, priors))


class SpeakerSystem:
    """One alignment source plus its background, ready to produce statistics.

    Sources: ``gmm-hmm`` (forced FB alignment over HMM-state mixtures),
    ``dnn`` (classifier posteriors over phonetic GMMs), ``dnn-hmm``
    (graph-constrained alignment with classifier emissions over phonetic
    GMMs), and ``ubm`` (unsupervised component posteriors).  Apart from the
    UBM, silence mass is dropped before statistics.  Only the background
    model is required up front; the aligner models are checked when an
    alignment needs them.
    """

    def __init__(self, source: str, models: AlignerModels,
                 silence_policy: str = "optional_between"):
        self.source = source
        self.models = models
        self.silence_policy = silence_policy
        if source == "gmm-hmm":
            self.background = Background.from_hmm_set(_need(models.hmms, "hmms"),
                                                      model_id="gmm-hmm")
        elif source in ("dnn", "dnn-hmm"):
            self.background = Background.from_pgmm(_need(models.pgmm, "pgmm"),
                                                   model_id=source)
        elif source == "ubm":
            self.background = Background.from_ubm(_need(models.ubm, "ubm"), model_id="ubm")
        else:
            raise ConfigInvalid(f"unknown alignment source {source!r}")

    def dnn_alignment(self, dnn_feats: FeatureSequence) -> AlignmentMatrix:
        return mlp_posteriors(_need(self.models.mlp, "mlp"), dnn_feats)

    def alignment(self, feats: FeatureSequence, prompt: str | None,
                  dnn_align: AlignmentMatrix | None = None) -> AlignmentMatrix | None:
        """State alignment for one utterance (None for the UBM source)."""
        if self.source == "ubm":
            return None
        return align(self.source, self.models, feats, prompt, dnn_align=dnn_align,
                     silence_policy=self.silence_policy)

    def posteriors(self, align: AlignmentMatrix | None,
                   feats: FeatureSequence) -> MixturePosteriors:
        """MixturePosteriors feeding statistics, with silence mass dropped."""
        if self.source == "ubm":
            return pgmm_mod.ubm_mixture_posteriors(self.models.ubm, feats)
        if self.source == "gmm-hmm":
            return pgmm_mod.mixture_posteriors(self.models.hmms, align, feats,
                                               drop_silence=True)
        return pgmm_mod.mixture_posteriors(self.models.pgmm, align, feats)

    def stats_posteriors(self, feats: FeatureSequence, prompt: str | None = None,
                         dnn_align: AlignmentMatrix | None = None) -> MixturePosteriors:
        """Align one utterance, then take its mixture posteriors."""
        return self.posteriors(self.alignment(feats, prompt, dnn_align), feats)


class AlignmentCache:
    """Per-utterance memoization for trial scoring, per prompt where the source reads it."""

    def __init__(self, system: SpeakerSystem):
        self.system = system
        self._dnn: dict = {}
        self._stats: dict = {}

    def dnn_align(self, utt):
        if utt.utt_id not in self._dnn:
            self._dnn[utt.utt_id] = self.system.dnn_alignment(utt.feats)
        return self._dnn[utt.utt_id]

    def stats_posteriors(self, utt, prompt):
        reads_prompt = self.system.source in ("gmm-hmm", "dnn-hmm")
        key = (utt.utt_id, prompt if reads_prompt else None)
        if key not in self._stats:
            dnn = self.dnn_align(utt) if self.system.source in ("dnn", "dnn-hmm") else None
            self._stats[key] = self.system.stats_posteriors(utt.feats, prompt, dnn)
        return self._stats[key]


def enroll_speakers(corpus, system: SpeakerSystem,
                    relevance: float = map_speaker.RELEVANCE_DEFAULT) -> dict:
    """MAP-enroll every corpus speaker from its enrollment utterances."""
    cache = AlignmentCache(system)
    speakers = {}
    for spk in corpus.speakers:
        utts = corpus.enrollment(spk)
        pairs = [(cache.stats_posteriors(u, u.content), u.feats) for u in utts]
        speakers[spk] = map_speaker.enroll(system.background, pairs, relevance)
    return speakers


def score_speaker_trials(corpus, trials, system: SpeakerSystem, speakers: dict) -> list:
    """Log-likelihood-ratio speaker score per trial, in trial order.

    The speaker models must have been enrolled on this system's background.
    """
    enrolled_on = {model.background_id for model in speakers.values()}
    if enrolled_on != {system.background.model_id}:
        raise SourceMismatch(
            f"speaker models were enrolled with the {', '.join(sorted(enrolled_on))} "
            f"alignment source; scoring requested {system.background.model_id}"
        )
    cache = AlignmentCache(system)
    scores = []
    for trial in trials:
        utt = corpus.by_id(trial.utterance)
        gammas = cache.stats_posteriors(utt, trial.prompt)
        scores.append(
            map_speaker.llr_score(speakers[trial.speaker], system.background,
                                  gammas, utt.feats)
        )
    return scores


def score_ivector_trials(corpus, trials, system: SpeakerSystem, tv, backend) -> list:
    """PLDA score per trial between enrollment and test i-vectors, in trial order."""
    cache = AlignmentCache(system)
    enroll_ivecs = {}
    for spk in corpus.speakers:
        prepared = []
        for u in corpus.enrollment(spk):
            stats = accumulate_stats(
                cache.stats_posteriors(u, u.content), u.feats,
                system.background.means, system.background.model_id)
            prepared.append(backend.prepare(extract_ivector(stats, tv)))
        enroll_ivecs[spk] = prepared
    scores = []
    test_cache = {}
    for trial in trials:
        key = (trial.utterance, trial.prompt)
        if key not in test_cache:
            u = corpus.by_id(trial.utterance)
            stats = accumulate_stats(
                cache.stats_posteriors(u, trial.prompt), u.feats,
                system.background.means, system.background.model_id)
            test_cache[key] = backend.prepare(extract_ivector(stats, tv))
        scores.append(plda_score(backend, enroll_ivecs[trial.speaker], test_cache[key]))
    return scores


def score_content_trials(corpus, trials, models: AlignerModels,
                         level: str = "digit", epsilon: float = 1e-5,
                         hmm_mode: str = "hybrid",
                         silence_policy: str = "optional_between") -> list:
    """KL content score per trial (lower = content matches the prompt)."""
    class_map = content_kl.PhoneticClassMap.for_level(level)
    dnn_cache: dict = {}
    kl_cache: dict = {}
    scores = []
    for trial in trials:
        utt = corpus.by_id(trial.utterance)
        key = (utt.utt_id, trial.prompt)
        if key not in kl_cache:
            if utt.utt_id not in dnn_cache:
                dnn_cache[utt.utt_id] = mlp_posteriors(models.mlp, utt.feats)
            decision = content_kl.content_verify(
                utt.feats, trial.prompt, models.hmms, dnn_cache[utt.utt_id],
                class_map=class_map, epsilon=epsilon,
                silence_policy=silence_policy, hmm_mode=hmm_mode,
                priors=models.mlp.class_priors if hmm_mode == "hybrid" else None,
            )
            kl_cache[key] = decision.kl
        scores.append(kl_cache[key])
    return scores

