"""Walkthrough benchmark for digitsv.

Runs the README's CLI walkthrough (synth, train, enroll, score with every
alignment source and both backends, content scoring, evaluate) in-process
through `digitsv.cli.cli_dispatch`, on one of the corpus shapes in
`workloads.py`, and prints one JSON result as the last line of stdout:

    python3 bench/run.py --workload trial_fanout --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-check

Every run makes one untraced pass of the walkthrough, with the short stages
sampled again in between (see `untraced`).  `--trace 0` reports the gated
end-to-end metrics: set-up time, peak memory and the EERs.  `--trace 1` then
makes one pass under the outside-in tracer and reports the per-layer metrics
together with the stage timings of the untraced pass (see STAGE_TIMINGS).
BLAS threads and glibc's malloc thresholds are pinned before the program is
imported, and recorded.  A fuller record (context, sizes, every stage timing,
score fingerprint) goes to the line before the result and to
`.bench_results/`.  The program is imported from the `src/` next to this
directory; without it the run exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# one BLAS thread: the closed loop has one client, and on a shared two-core
# machine a second thread adds more noise than speed
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters: name -> (parameter, value)
MALLOPT = {"M_MMAP_THRESHOLD": (-3, 64 << 20), "M_TRIM_THRESHOLD": (-1, 512 << 20)}
# Wall-time metrics of the walkthrough's stages.  On a shared two-core virtual
# machine they moved by 20-40% between runs minutes apart, with the host's
# speed, which is more than a regression bound can absorb.  So they go with
# the per-layer metrics, which have no bound, and into every run's record;
# the gated end-to-end metrics are set-up time, peak memory and the EERs.
STAGE_TIMINGS = ("train_s", "enroll_s", *(f"map_trials_per_s.{s}" for s in
                 ("gmm-hmm", "dnn", "dnn-hmm", "ubm")),
                 "ivector_s", "content_trials_per_s", "total_s")
# stages of these kinds shorter than SHORT_S are re-dispatched between the
# stages of the pass, for up to SHARE of their time, up to MAX_SAMPLES times each
REPEATED = ("enroll.", "map.", "content")
SHORT_S = 1.0
SHARE = 0.3
MAX_SAMPLES = 25


def pin_allocator():
    """Fix glibc's malloc thresholds; returns them, or None without glibc.

    By default glibc serves large arrays with fresh mmaps, returns freed
    memory to the kernel, and raises the mmap threshold as the process frees
    large blocks.  A dispatch's page faults, and so its time, would then
    depend on what earlier dispatches in this process freed, and on a shared
    virtual machine each fault's cost varies with the host's load.  Fixed
    thresholds keep freed memory in the heap for the next dispatch.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return None
    for param, value in MALLOPT.values():
        if mallopt(param, value) != 1:
            return None
    return {name: value for name, (_, value) in MALLOPT.items()}


def import_program():
    """Pin BLAS threads, then import digitsv from this checkout's src/ only."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    try:
        import digitsv
    except ImportError as exc:
        sys.exit(f"error: cannot import digitsv from {SRC}: {exc}")
    if not os.path.abspath(digitsv.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: digitsv resolved to {digitsv.__file__}, not to {SRC}")
    return digitsv


def blas_threads_in_use(np):
    """Thread count reported by numpy's bundled OpenBLAS, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def context(allocator):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": BLAS_THREADS, "blas_threads": blas_threads_in_use(np),
            "malloc_pinned": allocator,
            "python": platform.python_version(), "numpy": np.__version__}


def sizes(wt):
    from digitsv import formats
    from workloads import read_pairs
    splits = {s: read_pairs(wt.path("corpus", "splits", f"{s}.txt")) for s in ("enroll", "test")}
    utts = [u for rows in splits.values() for u, _ in rows]
    trials = wt.trials()
    keys = {(t[1], t[2]) for t in trials}
    return {"speakers": len({spk for _, spk in splits["enroll"]}),
            "enroll_utterances": len(splits["enroll"]), "test_utterances": len(splits["test"]),
            "frames": sum(formats.read_dvfe(wt.path("corpus", "feats", f"{u}.dvfe")).n_frames
                          for u in utts),
            "trials": len(trials), "keys": len(keys),
            "trials_per_key": len(trials) / len(keys),
            "clips": len(wt.inputs["clips"])}


def untraced(wt, seconds):
    """One untraced pass with the short stages interleaved; every metric it gives.

    Set-up and the stages of the kinds in REPEATED that took less than
    SHORT_S are dispatched again, each at most once per stage boundary, so
    their samples spread over the whole pass: after each stage for up to
    SHARE of that stage's time, and after the pass until `seconds` have
    passed since the run began.  The short stage with the least time sampled
    so far goes first.  Each timing is the median of its samples.
    """
    from walkthrough import SOURCES
    deadline = time.perf_counter() + seconds
    samples = defaultdict(list)
    short = ["setup"]

    def sample_short(budget):
        """At most one more sample of each short stage; returns how many it took."""
        end = time.perf_counter() + budget
        runs = dict(wt.stages(), setup=wt.setup)
        taken = 0
        for stage in sorted((s for s in short if len(samples[s]) < MAX_SAMPLES),
                            key=lambda s: sum(samples[s])):
            if time.perf_counter() >= end:
                break
            samples[stage].append(runs[stage]())
            taken += 1
        return taken

    def after(stage, seconds):
        samples[stage].append(seconds)
        if stage.startswith(REPEATED) and seconds < SHORT_S:
            short.append(stage)
        sample_short(SHARE * seconds)

    samples["setup"].append(wt.setup())
    first = wt.walkthrough(after)
    wt.check_scores()
    fingerprint = wt.fingerprint()
    while time.perf_counter() < deadline and sample_short(deadline - time.perf_counter()):
        pass
    if wt.fingerprint()["sha256"] != fingerprint["sha256"]:
        wt.problems.append("a repeated dispatch wrote different scores")

    med = {stage: statistics.median(v) for stage, v in samples.items()}
    n_trials = len(wt.trials())
    metrics = {
        "setup_s": (med["setup"], "s"),
        "train_s": (med["train"], "s"),
        "enroll_s": (sum(med[f"enroll.{s}"] for s in SOURCES), "s"),
        **{f"map_trials_per_s.{s}": (n_trials / med[f"map.{s}"], "trials/s") for s in SOURCES},
        "ivector_s": (med["ivector"], "s"),
        "content_trials_per_s": (n_trials / med["content"], "trials/s"),
        "total_s": (sum(first.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        **{f"eer_pct.{s}": (wt.evaluation[s]["TC-IC"]["eer_pct"], "%")
           for s in ("gmm-hmm", "dnn", "dnn-hmm", "ivector")},
        "eer_pct.content": (wt.evaluation["content"]["TC-TW"]["eer_pct"], "%"),
    }
    stages = {"pass": first, "median": med, "samples": dict(samples)}
    return metrics, stages, fingerprint


def per_layer(wt, digitsv, fingerprint):
    """The walkthrough under the tracer; per-layer metrics."""
    from layertrace import Tracer
    tracer = Tracer(digitsv)
    # module self time of each traced stage, from snapshots between stages
    by_stage = {}
    snapshot = {}

    def after(stage, _seconds):
        now = {module: stat.self_s for module, stat in tracer.mods.items()}
        by_stage[stage] = {m: t - snapshot.get(m, 0.0) for m, t in now.items()}
        snapshot.update(now)

    tracer.install()
    try:
        wt.setup()
        after("setup", None)
        traced = wt.walkthrough(after)
    finally:
        tracer.uninstall()
    wt.check_scores()
    if wt.fingerprint() != fingerprint:
        wt.problems.append("the traced pass wrote different scores")
    metrics = tracer.metrics()
    metrics["gmm.train_self_s"] = (by_stage["train"].get("gmm", 0.0), "s")
    stages = {"pass": traced, "module_self_s_by_stage": by_stage,
              "absent_layers": tracer.absent(), "hook_errors": sorted(tracer.hook_errors)}
    return metrics, stages


def run_workload(workload, seed, seconds, traced, digitsv, allocator):
    """One benchmark run; returns (result, record)."""
    from walkthrough import DispatchFailed, Walkthrough
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-s{seed}-t{int(traced)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wt = Walkthrough(work, workload, seed)
    record = {"workload": workload.name, "why": workload.why, "seed": seed,
              "corpus_seed": workload.corpus_seed, "trace": int(traced), "seconds": seconds,
              "context": context(allocator)}
    metrics = {}
    try:
        # a traced run takes no samples after the untraced pass
        measured, record["untraced"], fingerprint = untraced(wt, 0 if traced else seconds)
        record["measured"] = measured
        record["fingerprint"] = fingerprint
        if traced:
            metrics, record["traced"] = per_layer(wt, digitsv, fingerprint)
            metrics.update((name, measured[name]) for name in STAGE_TIMINGS)
        else:
            metrics = {k: v for k, v in measured.items() if k not in STAGE_TIMINGS}
        record["sizes"] = sizes(wt)
    except DispatchFailed as exc:
        wt.problems.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["by_subcommand"] = wt.by_subcommand
    record["problems"] = wt.problems
    result = {"correct": not wt.problems and wt.failed == 0, "attempted": wt.attempted,
              "failed": wt.failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    return result, record


def self_check(digitsv, allocator):
    """Tiny corpus through every stage, untraced and traced; checks names and determinism."""
    import workloads
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    runs = {}
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        t0 = time.perf_counter()
        result, record = run_workload(workloads.TINY, 1, 0, traced, digitsv, allocator)
        runs[traced] = record
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if not result["correct"]:
            failures.append(f"trace={int(traced)}: {record['problems']}")
        if got != want:
            failures.append(f"trace={int(traced)}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(want.items()))}")
        print(f"self-check trace={int(traced)}: {time.perf_counter() - t0:.1f} s, "
              f"{result['attempted']} dispatches", file=sys.stderr)
    stages = runs[True].get("stages", {})
    if stages.get("absent_layers") or stages.get("hook_errors"):
        failures.append(f"tracer: absent {stages.get('absent_layers')}, "
                        f"hook errors {stages.get('hook_errors')}")
    if runs[False].get("fingerprint") != runs[True].get("fingerprint"):
        failures.append("two runs of the same seed gave different fingerprints")
    for failure in failures:
        print(f"self-check FAILED: {failure}", file=sys.stderr)
    print("self-check ok" if not failures else "self-check failed", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    allocator = pin_allocator()
    digitsv = import_program()
    import workloads
    if args.self_check:
        return self_check(digitsv, allocator)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result, record = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace), digitsv, allocator)
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"result": result, **record}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
