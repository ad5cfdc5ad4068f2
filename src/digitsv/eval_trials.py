"""Trial lists, the TC/TW/IC/IW taxonomy, and EER / minDCF metrics.

Scores follow the higher-is-target convention throughout; content KL
scores must be negated before they enter a ScoreSet.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DigitsvError, TrialParseError

CATEGORIES = ("TC", "TW", "IC", "IW")
CONDITIONS = {
    "TC_IC": "IC",
    "TC_TW": "TW",
    "TC_IW": "IW",
}


@dataclass(frozen=True)
class TrialRecord:
    speaker: str      # enrollment speaker id
    utterance: str    # test utterance id
    prompt: str       # prompted digit string
    category: str     # TC | TW | IC | IW

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"invalid trial category {self.category!r}")


def parse_trials(lines) -> list[TrialRecord]:
    """Parse `<speaker> <utt> <digits> <category>` lines; reports line numbers."""
    records = []
    for no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TrialParseError(no, f"expected 4 fields, got {len(parts)}")
        speaker, utt, prompt, category = parts
        if category not in CATEGORIES:
            raise TrialParseError(no, f"unknown category {category!r}")
        if not (prompt.isascii() and prompt.isdigit()):  # "²".isdigit() holds too
            raise TrialParseError(no, f"prompt {prompt!r} is not a digit string")
        records.append(TrialRecord(speaker, utt, prompt, category))
    return records


def load_trials(path) -> list[TrialRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trials(fh)


@dataclass
class ScoreSet:
    """Parallel scores and binary labels (True = target, i.e. TC)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=bool)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise ValueError("scores and labels must be parallel 1-D arrays")
        if self.scores.size == 0:
            raise ValueError("empty score set")


@dataclass
class DcfParams:
    c_miss: float
    c_fa: float
    p_target: float

    def __post_init__(self):
        if min(self.c_miss, self.c_fa, self.p_target) <= 0 or self.p_target >= 1:
            raise ValueError("DCF parameters must be positive with p_target < 1")


SRE08 = DcfParams(c_miss=10.0, c_fa=1.0, p_target=0.01)
SRE10 = DcfParams(c_miss=1.0, c_fa=1.0, p_target=0.001)


def partition_trials(trials, condition: str):
    """Keep TC plus one non-target category; returns (record, is_target) pairs."""
    if condition not in CONDITIONS:
        raise DigitsvError(
            f"condition must be one of {sorted(CONDITIONS)}, got {condition!r}"
        )
    nontarget = CONDITIONS[condition]
    out = []
    for rec in trials:
        if rec.category == "TC":
            out.append((rec, True))
        elif rec.category == nontarget:
            out.append((rec, False))
    return out


def _check_both_classes(ss: ScoreSet):
    if ss.labels.all() or not ss.labels.any():
        raise DigitsvError("need both target and non-target scores")


def _error_rates(ss: ScoreSet):
    """P_miss/P_fa at thresholds below the min score and just above each score.

    Acceptance is score >= threshold, so a trial at the threshold counts as
    accepted.
    """
    _check_both_classes(ss)
    targets = np.sort(ss.scores[ss.labels])
    nontargets = np.sort(ss.scores[~ss.labels])
    scores = np.sort(ss.scores)  # np.unique would import numpy.ma for its masked-array check
    thresholds = scores[np.concatenate(([True], scores[1:] != scores[:-1]))]
    # miss: targets strictly below the threshold; fa: nontargets at/above it
    p_miss = np.searchsorted(targets, thresholds, side="left") / targets.size
    accepted = nontargets.size - np.searchsorted(nontargets, thresholds, side="left")
    p_fa = accepted / nontargets.size
    return np.concatenate(([0.0], p_miss, [1.0])), np.concatenate(([1.0], p_fa, [0.0]))


def compute_eer(ss: ScoreSet) -> float:
    """Equal error rate with linear interpolation between operating points."""
    p_miss, p_fa = _error_rates(ss)
    diff = p_miss - p_fa  # nondecreasing in the threshold
    k = int(np.searchsorted(diff >= 0, True))
    if diff[k] == 0.0:
        return float(p_fa[k])
    lo, hi = k - 1, k
    span = diff[hi] - diff[lo]
    t = -diff[lo] / span
    return float(p_fa[lo] + t * (p_fa[hi] - p_fa[lo]))


def compute_min_dcf(ss: ScoreSet, params: DcfParams) -> float:
    """Minimum normalized detection cost over all thresholds."""
    p_miss, p_fa = _error_rates(ss)
    cost = params.c_miss * params.p_target * p_miss + \
        params.c_fa * (1.0 - params.p_target) * p_fa
    norm = min(params.c_miss * params.p_target, params.c_fa * (1.0 - params.p_target))
    return float(cost.min() / norm)


def evaluate_condition(trials, scores, condition: str,
                       dcf_params=(SRE08, SRE10), negate: bool = False):
    """EER and minDCFs over one condition's trials; set negate=True for KL scores."""
    scored = [SimpleNamespace(category=trial.category, score=score)
              for trial, score in zip(trials, scores)]
    kept = partition_trials(scored, condition)
    if not kept:
        raise DigitsvError(f"condition {condition} has no trials")
    values = np.asarray([rec.score for rec, _ in kept])
    if negate:
        values = -values
    ss = ScoreSet(values, np.asarray([target for _, target in kept]))
    return compute_eer(ss), [compute_min_dcf(ss, p) for p in dcf_params]


def format_report(rows) -> str:
    """Aligned metrics table, one line per (condition, eer, [SRE08 minDCF, SRE10 minDCF])."""
    headers = ["condition", "EER(%)", "minDCF08", "minDCF10"]
    table = [headers]
    for condition, eer, dcfs in rows:
        table.append([condition, f"{100.0 * eer:.2f}", *(f"{v:.4f}" for v in dcfs)])
    widths = [max(len(r[c]) for r in table) for c in range(len(headers))]
    lines = []
    for r in table:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)
