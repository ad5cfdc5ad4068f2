"""In-memory orchestration of the full verification pipeline.

Glue between the synthetic corpus (or any utterance provider) and the
alignment/backend modules: one trainer per alignment model, speaker
enrollment, and speaker and content scoring of trial lists.  One walker
serves enrollment and both kinds of scoring, one (utterance, prompt) key at
a time: each key's alignment becomes statistics or a KL score before the
next key is aligned.  The CLI wraps the same functions around on-disk
artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import content_kl, hmm as hmm_mod, map_speaker, pgmm as pgmm_mod
from .config import PipelineConfig
from .errors import DigitsvError
from .gmm import DiagGmm, GmmTrainConfig, train_em
from .hmm import HmmSet, compile_graph, train_hmm_set
from .ivector import PldaScorer
from .map_speaker import SpeakerModels
from .neural_aligner import MlpModel, MlpTrainConfig, mlp_posteriors, train_mlp
from .pgmm import Background, Pgmm, SuffStats, accumulate_stats
from .features import FeatureSequence


@dataclass
class AlignerModels:
    hmms: HmmSet | None = None
    mlp: MlpModel | None = None
    pgmm: Pgmm | None = None
    ubm: DiagGmm | None = None


def _enrollment(corpus) -> list:
    enroll = [u for u in corpus.utterances if u.split == "enroll"]
    if not enroll:
        raise DigitsvError("the corpus has no enrollment utterances")
    return enroll


def train_hmms(corpus, cfg: PipelineConfig) -> HmmSet:
    """Word HMM set trained on the corpus's enrollment utterances."""
    return train_hmm_set([(u.feats, u.content) for u in _enrollment(corpus)],
                         cfg.hmm_components, cfg.silence_policy)


def _frame_matrix(utts, feats_of, n_frames: int) -> np.ndarray:
    """``feats_of(utt).frames`` of every utterance, filled into one preallocated matrix.

    The matrix takes its frames' dtype (float32 as read from DVFE files); an
    utterance of a wider dtype widens the rows filled so far, never the reverse.
    """
    frames, row = None, 0
    for utt in utts:
        x = feats_of(utt).frames
        if frames is None:
            frames = np.empty((n_frames, x.shape[1]), x.dtype)
        elif not np.can_cast(x.dtype, frames.dtype):
            wider = np.empty(frames.shape, np.result_type(frames, x))
            wider[:row] = frames[:row]
            frames = wider
        frames[row:row + x.shape[0]] = x
        row += x.shape[0]
    return frames


def train_classifier(corpus, cfg: PipelineConfig, hmms: HmmSet, stream=None) -> MlpModel:
    """Frame classifier trained on the Viterbi state labels of the enrollment utterances.

    Each utterance's corpus features are forced-aligned to its transcription
    with ``hmms``; the classifier learns those labels from ``stream(utt)``,
    its own feature stream (the corpus features by default), and takes its
    input kind from that stream.  A stream of mixed widths, or an utterance
    whose stream and corpus features differ in frame count, raises
    DigitsvError.  The training frames are read a second time, into one
    matrix, once every label is known.
    """
    enroll = _enrollment(corpus)
    feats_of = (lambda utt: utt.feats) if stream is None else stream
    labels, first = [], None
    for utt in enroll:
        corpus_feats = utt.feats
        graph = compile_graph(utt.content, cfg.silence_policy)
        path = hmm_mod.viterbi_align(graph, hmm_mod.node_loglikes(graph, corpus_feats, hmms),
                                     hmms)
        feats = corpus_feats if stream is None else stream(utt)
        first = first or feats
        if (feats.kind, feats.dim) != (first.kind, first.dim):
            raise DigitsvError(
                f"classifier features of {utt.utt_id} are {feats.dim}-dim {feats.kind.value}, "
                f"earlier ones {first.dim}-dim {first.kind.value}")
        if feats.n_frames != len(path):
            raise DigitsvError(f"classifier features of {utt.utt_id} have {feats.n_frames} "
                               f"frames, its corpus features {len(path)}")
        labels.append(path)
    labels = np.concatenate(labels)
    return train_mlp(_frame_matrix(enroll, feats_of, len(labels)), labels, MlpTrainConfig(
        hidden_dims=cfg.mlp_hidden_dims, epochs=cfg.mlp_epochs,
        learning_rate=cfg.mlp_learning_rate, batch_size=cfg.mlp_batch_size,
        input_kind=first.kind, seed=cfg.seed,
    ))


def train_phonetic_gmms(corpus, cfg: PipelineConfig, alignment) -> Pgmm:
    """Phonetic GMMs under ``alignment(utt)`` of each enrollment utterance.

    An alignment that is not (frames, 33) for its utterance's features raises
    DigitsvError naming the utterance.
    """
    enroll = _enrollment(corpus)
    aligns = [alignment(utt) for utt in enroll]
    feats = [utt.feats for utt in enroll]
    for utt, a, f in zip(enroll, aligns, feats):
        if a.shape != (f.n_frames, hmm_mod.N_STATES):
            raise DigitsvError(f"alignment of {utt.utt_id} is {a.shape}, its features "
                               f"need ({f.n_frames}, {hmm_mod.N_STATES})")
    return pgmm_mod.train_pgmm(aligns, feats, cfg.pgmm_components, cfg.pgmm_em_iterations)


def train_ubm(corpus, cfg: PipelineConfig) -> DiagGmm:
    """Unsupervised background GMM on the pooled enrollment frames."""
    enroll = _enrollment(corpus)
    n_frames = sum(utt.feats.n_frames for utt in enroll)
    return train_em(_frame_matrix(enroll, lambda utt: utt.feats, n_frames),
                    GmmTrainConfig(target_components=cfg.ubm_components))


def _need(model, name):
    if model is None:
        raise DigitsvError(f"alignment source requires a trained {name} model")
    return model


# alignment sources whose alignment, and so whose statistics, depend on the prompt
PROMPTED_SOURCES = ("gmm-hmm", "dnn-hmm")


def align(source: str, models: AlignerModels, feats: FeatureSequence | None,
          prompt: str | None, mode: str = "fb",
          dnn_align: np.ndarray | None = None,
          silence_policy: str = "optional_between") -> np.ndarray:
    """(T, 33) state alignment of one utterance from one alignment source.

    ``dnn`` takes the classifier posteriors (``dnn_align``, or the classifier
    run on ``feats``) and ignores the prompt; ``gmm-hmm`` and ``dnn-hmm``
    align over the graph of the prompted transcription, with GMM or
    classifier scaled-likelihood emissions.  ``mode`` is ``fb`` for
    forward-backward posteriors or ``viterbi`` for the best path as 0/1 rows.
    """
    if source not in ("gmm-hmm", "dnn", "dnn-hmm"):
        raise DigitsvError(f"unknown alignment source {source!r}")
    if mode not in ("fb", "viterbi"):
        raise DigitsvError(f"unknown alignment mode {mode!r}")
    if source != "gmm-hmm" and dnn_align is None:
        dnn_align = mlp_posteriors(_need(models.mlp, "mlp"), feats)
    if source == "dnn":
        if mode == "fb":
            return dnn_align
        return hmm_mod.path_to_alignment(dnn_align.argmax(axis=1))
    if prompt is None:
        raise DigitsvError(f"{source} alignment needs the prompted transcription")
    hmms = _need(models.hmms, "hmms")
    graph = compile_graph(prompt, silence_policy)
    if source == "gmm-hmm":
        loglikes = hmm_mod.node_loglikes(graph, feats, hmms)
    else:
        loglikes = hmm_mod.hybrid_loglikes(graph, dnn_align, _need(models.mlp, "mlp").class_priors)
    if mode == "fb":
        return hmm_mod.fb_align(graph, loglikes, hmms)
    return hmm_mod.path_to_alignment(hmm_mod.viterbi_align(graph, loglikes, hmms))


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
        name = {"gmm-hmm": "hmms", "dnn": "pgmm", "dnn-hmm": "pgmm", "ubm": "ubm"}.get(source)
        if name is None:
            raise DigitsvError(f"unknown alignment source {source!r}")
        self.model = _need(getattr(models, name), name)  # the model statistics are taken under
        self.background = Background.of(self.model, source)

    def statistics(self, feats: FeatureSequence,
                   alignment: np.ndarray | None) -> tuple[SuffStats, int]:
        """One utterance's statistics on the background, and its retained frames.

        ``alignment`` is the utterance's (T, 33) state alignment (None for ``ubm``).
        The retained frames are those carrying any mixture mass.
        """
        gammas = pgmm_mod.mixture_posteriors(self.model, alignment, feats)
        bg = self.background
        return (accumulate_stats(gammas, feats, bg.means, bg.model_id),
                int(np.count_nonzero(gammas.any(axis=1))))


def _trial_plan(corpus, trials, prompt_keyed: bool, enrolled=None) -> list:
    """Trial indices grouped by test utterance, then by key, in first-seen order.

    Returns (utterance, {key: [trial index, ...]}) pairs; the key is the
    prompt when ``prompt_keyed``, else None.  A trial naming an utterance
    the corpus lacks, or a speaker outside ``enrolled`` (when given), raises
    DigitsvError before any alignment runs.
    """
    plan: dict = {}
    for i, trial in enumerate(trials):
        named = f"trial {i + 1} ({trial.speaker} {trial.utterance} {trial.prompt})"
        if enrolled is not None and trial.speaker not in enrolled:
            raise DigitsvError(f"{named}: speaker {trial.speaker!r} has no enrolled model")
        if trial.utterance not in plan:
            try:
                plan[trial.utterance] = (corpus.by_id(trial.utterance), {})
            except KeyError:
                raise DigitsvError(
                    f"{named}: utterance {trial.utterance!r} is not in the corpus") from None
        keys = plan[trial.utterance][1]
        keys.setdefault(trial.prompt if prompt_keyed else None, []).append(i)
    return list(plan.values())


def _walk(plan, source: str, models: AlignerModels, silence_policy: str, reduce,
          classify: bool = False):
    """(trial indices, ``reduce(features, forced alignment, classifier posteriors)``) per key.

    The alignment is ``source``'s over the key's prompt (None for ``ubm``) and
    lives only through the ``reduce`` call; the classifier runs once per
    utterance when the source or ``classify`` needs it, else its posteriors are None.
    """
    classify = classify or source in ("dnn", "dnn-hmm")
    for utt, keys in plan:
        feats = utt.feats  # read once, then widened to float64 once for every key
        if feats.frames.dtype != np.float64:
            feats = replace(feats, frames=feats.frames.astype(np.float64))
        dnn = mlp_posteriors(_need(models.mlp, "mlp"), feats) if classify else None
        for prompt, indices in keys.items():
            yield indices, reduce(feats, None if source == "ubm" else align(
                source, models, feats, prompt, dnn_align=dnn, silence_policy=silence_policy), dnn)
        del feats, dnn  # not held while the next utterance is read and classified


def _enrolled(corpus) -> list:
    """Speakers with enrollment utterances, in sorted id order: both backends enroll these."""
    return [spk for spk in sorted(corpus.speakers) if corpus.enrollment(spk)]


def _enrollment_stats(utts, system: SpeakerSystem):
    """Each utterance's statistics, one key over its transcript, walked before it yields them."""
    for utt in utts:
        [(_, stats)] = _walk([(utt, {utt.content: None})], system.source, system.models,
                             system.silence_policy, lambda f, a, _: system.statistics(f, a)[0])
        yield stats
        del stats  # nor the yielded statistics while the next utterance is aligned


def enroll_speakers(corpus, system: SpeakerSystem,
                    relevance: float = map_speaker.RELEVANCE_DEFAULT) -> SpeakerModels:
    """MAP-enroll every corpus speaker that has enrollment utterances.

    Speakers are enrolled in sorted id order, each straight into its row of
    the roster's one (speakers, M, D) array.
    """
    ids = _enrolled(corpus)
    means = np.empty((len(ids), *system.background.means.shape))
    for row, spk in zip(means, ids):
        stats = _enrollment_stats(corpus.enrollment(spk), system)
        row[...] = map_speaker.enroll(system.background, stats, relevance)
    return SpeakerModels(ids, means, system.background.model_id, relevance)


def _score_trials(trials, plan, system: SpeakerSystem, scorer) -> list:
    """Score per trial, in trial order, from a scorer of every enrolled speaker.

    ``scorer.scores(stats, retained)`` scores all speakers of one key at once;
    ``scorer.index`` gives each speaker's position in that array.
    """
    scores = [0.0] * len(trials)
    for indices, (stats, retained) in _walk(plan, system.source, system.models,
                                            system.silence_policy,
                                            lambda f, a, _: system.statistics(f, a)):
        llrs = scorer.scores(stats, retained)
        for i in indices:
            scores[i] = float(llrs[scorer.index[trials[i].speaker]])
        del stats, llrs  # not held while the next key is aligned
    return scores


def score_speaker_trials(corpus, trials, system: SpeakerSystem,
                         speakers: SpeakerModels) -> list:
    """Log-likelihood-ratio speaker score per trial, in trial order.

    The speaker models must have been enrolled on this system's background.
    Each (utterance, prompt) key's statistics score all of its trials'
    speakers at once with the exact linear form of the average per-frame LLR.
    The scorer takes the roster's means and overwrites them (see
    ``map_speaker.LinearLlr``), so the roster is left empty.
    """
    plan = _trial_plan(corpus, trials, system.source in PROMPTED_SOURCES, speakers)
    return _score_trials(trials, plan, system,
                         map_speaker.LinearLlr(speakers, system.background))


def score_ivector_trials(corpus, trials, system: SpeakerSystem, tv, backend) -> list:
    """PLDA score per trial between enrollment and test i-vectors, in trial order."""
    enrolled = _enrolled(corpus)
    plan = _trial_plan(corpus, trials, system.source in PROMPTED_SOURCES, enrolled)
    enrollments = {spk: _enrollment_stats(corpus.enrollment(spk), system) for spk in enrolled}
    return _score_trials(trials, plan, system, PldaScorer(tv, backend, enrollments))


def score_content_trials(corpus, trials, models: AlignerModels,
                         level: str = "digit", epsilon: float = 1e-5,
                         hmm_mode: str = "hybrid",
                         silence_policy: str = "optional_between") -> list:
    """KL content score per trial (lower = content matches the prompt).

    The prompt-forced alignment is ``gmm-hmm`` for ``hmm_mode='gmm'`` and
    ``dnn-hmm`` for ``'hybrid'``; the classifier runs once per utterance and
    is also the transcription-free reference.
    """
    plan = _trial_plan(corpus, trials, prompt_keyed=True)
    source = {"gmm": "gmm-hmm", "hybrid": "dnn-hmm"}.get(hmm_mode)
    if source is None:
        raise DigitsvError(f"unknown hmm mode {hmm_mode!r}")
    scores = [0.0] * len(trials)
    for indices, kl in _walk(plan, source, models, silence_policy,
                             lambda _, a, dnn: content_kl.content_verify(a, dnn, level, epsilon),
                             classify=True):
        for i in indices:
            scores[i] = kl
    return scores
