"""The README's CLI walkthrough, dispatched in-process and timed per stage.

One client runs the stages as a closed loop: each `cli_dispatch` call starts
only after the previous one returned.  A stage's time is the sum of its
dispatch times; garbage collection runs between dispatches, outside them.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import gc
import hashlib
import io
import math
import os
import time

from digitsv import cli

import workloads

SOURCES = ("gmm-hmm", "dnn", "dnn-hmm", "ubm")
SYSTEMS = SOURCES + ("ivector",)
SCORED = SYSTEMS + ("content",)
CONDITIONS = ("TC-IC", "TC-TW", "TC-IW")
FRONT_END_KINDS = ("fbank", "mfcc", "spliced")


class DispatchFailed(Exception):
    pass


class Walkthrough:
    def __init__(self, work, workload, seed):
        self.work = work
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.inputs = None
        self.evaluation = {}
        self.problems = []
        # subcommand -> [dispatches, wall seconds, CPU seconds]
        self.by_subcommand = {}

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def dispatch(self, *argv):
        """Run one subcommand; returns (seconds, stdout)."""
        argv = [str(a) for a in argv]
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.cli_dispatch(argv)
        except Exception as exc:  # a traceback from the program is a failed operation
            self.failed += 1
            raise DispatchFailed(f"{' '.join(argv)} raised {exc!r}") from exc
        seconds = time.perf_counter() - t0
        totals = self.by_subcommand.setdefault(argv[0], [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += seconds
        totals[2] += time.process_time() - c0
        if code != 0:
            self.failed += 1
            raise DispatchFailed(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return seconds, out.getvalue()

    def run(self, *argv):
        return self.dispatch(*argv)[0]

    # --- stages ---------------------------------------------------------------

    def setup(self):
        """synth plus the inputs the benchmark writes; returns seconds."""
        w = self.workload
        seconds = self.run("synth", "--out", self.work, "--speakers", w.speakers,
                           "--test-per-speaker", w.test_per_speaker,
                           *workloads.SYNTH_FLAGS, "--seed", w.corpus_seed)
        t0 = time.perf_counter()
        self.inputs = workloads.write_inputs(self.work, w, self.seed)
        return seconds + time.perf_counter() - t0

    def models(self, name):
        return self.path("models", f"{name}.dvmd")

    def front_end(self):
        seconds = 0.0
        for clip in self.inputs["clips"]:
            stem = os.path.splitext(os.path.basename(clip))[0]
            for kind in FRONT_END_KINDS:
                os.makedirs(self.path("frontend"), exist_ok=True)
                seconds += self.run("extract-feats", "--wav", clip, "--kind", kind,
                                    "--out", self.path("frontend", f"{stem}.{kind}.dvfe"))
        return seconds

    def train(self):
        corpus = ("--corpus", self.work)
        return (self.run("train-hmm", *corpus, "--out", self.models("hmm"))
                + self.run("train-mlp", *corpus, "--hmm", self.models("hmm"),
                           "--hidden", "256,256", "--epochs", 8, "--out", self.models("mlp"))
                + self.run("train-pgmm", *corpus, "--mlp", self.models("mlp"),
                           "--out", self.models("pgmm"))
                + self.run("train-ubm", *corpus, "--components", 32,
                           "--out", self.models("ubm")))

    def system_flags(self, source):
        needs = {"gmm-hmm": ("hmm",), "dnn": ("mlp", "pgmm"),
                 "dnn-hmm": ("hmm", "mlp", "pgmm"), "ubm": ("ubm",)}[source]
        flags = ["--source", source]
        for name in needs:
            flags += [f"--{name}", self.models(name)]
        return flags

    def scores(self, system):
        return self.path("scores", f"{system}.txt")

    def enroll(self, source):
        return self.run("enroll-map", "--corpus", self.work, *self.system_flags(source),
                        "--out", self.models(f"speakers.{source}"))

    def score_map(self, source):
        return self.run("score-speaker", "--corpus", self.work, "--trials", self.inputs["trials"],
                        *self.system_flags(source), "--speakers", self.models(f"speakers.{source}"),
                        "--out", self.scores(source))

    def ivector_chain(self):
        dnn = self.system_flags("dnn")
        for sub in ("align", "stats"):
            os.makedirs(self.path("ivector", sub), exist_ok=True)
        stats_dir = self.path("ivector", "stats")
        seconds = 0.0
        for utt in self.inputs["enroll"]:
            feats = self.path("corpus", "feats", f"{utt}.dvfe")
            align = self.path("ivector", "align", f"{utt}.dvpo")
            seconds += self.run("align", "--source", "dnn", "--mlp", self.models("mlp"),
                                "--feats", feats, "--out", align)
            seconds += self.run("accumulate-stats", "--source", "dnn", "--feats", feats,
                                "--align", align, "--pgmm", self.models("pgmm"),
                                "--out", os.path.join(stats_dir, f"{utt}.dvst"))
        ivectors = self.path("ivector", "enroll.dviv")
        seconds += self.run("train-tv", *dnn, "--stats-dir", stats_dir, "--rank", 20,
                            "--out", self.models("tv"))
        seconds += self.run("extract-ivector", "--tv", self.models("tv"), "--stats-dir", stats_dir,
                            "--out", ivectors)
        seconds += self.run("train-backend", "--ivectors", ivectors,
                            "--utt2spk", self.inputs["utt2spk"], "--lda-dim", 10,
                            "--plda-iterations", 8, "--out", self.models("plda"))
        seconds += self.run("score-speaker", "--corpus", self.work, "--trials", self.inputs["trials"],
                            "--backend", "ivector", *dnn, "--tv", self.models("tv"),
                            "--plda", self.models("plda"), "--out", self.scores("ivector"))
        return seconds

    def score_content(self):
        return self.run("score-content", "--corpus", self.work, "--trials", self.inputs["trials"],
                        "--hmm", self.models("hmm"), "--mlp", self.models("mlp"),
                        "--out", self.scores("content"))

    def evaluate(self):
        """evaluate every system on every condition; keeps the parsed report."""
        conditions = [a for c in CONDITIONS for a in ("--condition", c)]
        seconds = 0.0
        for system in SCORED:
            extra = ("--content",) if system == "content" else ()
            dt, report = self.dispatch("evaluate", "--trials", self.inputs["trials"],
                                       "--scores", self.scores(system), *conditions, *extra)
            seconds += dt
            self.evaluation[system] = parse_report(report)
        return seconds

    def stages(self):
        """The walkthrough after set-up, front end to evaluate, as (stage, run) pairs."""
        steps = [("front_end", self.front_end)] if self.workload.front_end else []
        steps.append(("train", self.train))
        for source in SOURCES:
            steps.append((f"enroll.{source}", functools.partial(self.enroll, source)))
            steps.append((f"map.{source}", functools.partial(self.score_map, source)))
        steps += [("ivector", self.ivector_chain), ("content", self.score_content),
                  ("evaluate", self.evaluate)]
        return steps

    def walkthrough(self, after):
        """One pass of the stages: {stage: seconds}.

        `after(stage, seconds)` runs after each stage, outside its time.
        """
        times = {}
        for stage, run in self.stages():
            times[stage] = run()
            after(stage, times[stage])
        return times

    # --- outputs --------------------------------------------------------------

    def fingerprint(self):
        """SHA-256 of every score file plus the parsed evaluate reports.

        Lines are hashed in sorted order, so the fingerprint does not depend
        on the trial order the run seed draws.
        """
        hashes = {}
        for system in SCORED:
            with open(self.scores(system), "rb") as fh:
                hashes[system] = hashlib.sha256(b"".join(sorted(fh))).hexdigest()
        return {"sha256": hashes, "evaluate": copy.deepcopy(self.evaluation)}

    def trials(self):
        return workloads.read_pairs(self.inputs["trials"])

    def check_scores(self):
        """Every score file has one finite score per trial; records problems."""
        n_trials = len(self.trials())
        for system in SCORED:
            column = 1 if system == "content" else 2
            rows = workloads.read_pairs(self.scores(system))
            if len(rows) != n_trials:
                self.problems.append(f"{system}: {len(rows)} scores for {n_trials} trials")
            bad = [r for r in rows if not math.isfinite(float(r[column]))]
            if bad:
                self.problems.append(f"{system}: {len(bad)} non-finite scores")


def parse_report(text):
    """`evaluate` table -> {condition: {eer_pct, min_dcf08, min_dcf10}}."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    rows = {}
    for cond, eer, dcf08, dcf10 in lines[1:]:
        rows[cond] = {"eer_pct": float(eer), "min_dcf08": float(dcf08), "min_dcf10": float(dcf10)}
    return rows
