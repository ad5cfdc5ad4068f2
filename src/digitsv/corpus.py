"""The corpus: utterances with transcripts and splits, and its trial list.

One type serves the generator, the CLI and the tests.  An utterance holds
its features in memory, or names the DVFE file it reads them from on every
access; nothing is cached, so a corpus read from disk never holds its
features and each caller binds ``feats`` once per utterance.

Directory layout (written by `synth`, read by the other stages):

    corpus/feats/<utt>.dvfe
    corpus/transcripts/transcripts.txt   # <utt-id> <digit-string>
    corpus/trials/trials.txt             # <speaker> <utt-id> <digits> <category>
    corpus/splits/enroll.txt             # <utt-id> <speaker>
    corpus/splits/test.txt               # <utt-id> <speaker>
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import formats
from .errors import DigitsvError
from .features import FeatureSequence


@dataclass
class Utterance:
    utt_id: str
    speaker: str
    content: str                   # digits actually "spoken"
    split: str                     # "enroll" | "test"
    source: FeatureSequence | str  # the features, or the DVFE file that holds them

    @property
    def feats(self) -> FeatureSequence:
        if isinstance(self.source, str):
            return formats.read_dvfe(self.source)
        return self.source


class Corpus:
    """Utterances in order, indexed by id; ``trials`` is None for a corpus read from disk,
    whose trial list the scoring stages read from ``trials_path``."""

    def __init__(self, utterances, trials=None):
        self.utterances = list(utterances)
        self.trials = trials
        self.speakers = sorted({u.speaker for u in self.utterances})
        self._index = {u.utt_id: u for u in self.utterances}

    def by_id(self, utt_id: str) -> Utterance:
        return self._index[utt_id]

    def enrollment(self, speaker: str) -> list:
        return [u for u in self.utterances if u.speaker == speaker and u.split == "enroll"]

    def tests(self) -> list:
        return [u for u in self.utterances if u.split == "test"]


def _path(root, *parts) -> str:
    return os.path.join(root, "corpus", *parts)


def trials_path(root) -> str:
    return _path(root, "trials", "trials.txt")


def read_pairs(path) -> dict:
    """``<key> <value>`` lines of a text file in file order, skipping blank lines.

    A key may appear on one line only.
    """
    pairs = {}
    with open(path) as fh:
        for no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 2:
                raise DigitsvError(f"{path} line {no}: expected 2 fields, got {len(fields)}")
            if fields[0] in pairs:
                raise DigitsvError(f"{path} line {no}: {fields[0]!r} is repeated")
            pairs[fields[0]] = fields[1]
    return pairs


def read_corpus(root) -> Corpus:
    """The corpus under ``root``, its utterances in the order of the transcripts file."""
    transcripts_path = _path(root, "transcripts", "transcripts.txt")
    transcripts = read_pairs(transcripts_path)
    splits = {}
    for split in ("enroll", "test"):
        split_path = _path(root, "splits", f"{split}.txt")
        for utt, spk in read_pairs(split_path).items():
            if utt not in transcripts:
                raise DigitsvError(f"{transcripts_path}: no transcript for utterance {utt!r}")
            if utt in splits:
                raise DigitsvError(f"{split_path}: utterance {utt!r} is also in the "
                                   f"{splits[utt][1]} split")
            splits[utt] = spk, split
    return Corpus(Utterance(utt, splits[utt][0], text, splits[utt][1],
                            _path(root, "feats", f"{utt}.dvfe"))
                  for utt, text in transcripts.items() if utt in splits)


def write_corpus(root, corpus: Corpus) -> None:
    """``corpus`` under ``root`` in the layout above, its features as DVFE files."""
    for sub in ("feats", "transcripts", "trials", "splits"):
        os.makedirs(_path(root, sub), exist_ok=True)
    with formats._create(_path(root, "transcripts", "transcripts.txt"), "w") as fh:
        for u in corpus.utterances:
            formats.write_dvfe(_path(root, "feats", f"{u.utt_id}.dvfe"), u.feats)
            fh.write(f"{u.utt_id} {u.content}\n")
    for split in ("enroll", "test"):
        with formats._create(_path(root, "splits", f"{split}.txt"), "w") as fh:
            fh.writelines(f"{u.utt_id} {u.speaker}\n"
                          for u in corpus.utterances if u.split == split)
    with formats._create(trials_path(root), "w") as fh:
        fh.writelines(f"{t.speaker} {t.utterance} {t.prompt} {t.category}\n"
                      for t in corpus.trials)
