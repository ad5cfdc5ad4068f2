"""Outside-in tracer for the traced benchmark run.

The program is not instrumented.  Instead every public function of every
`digitsv.*` module, plus the methods named in METHODS, is wrapped, and the
wrapper is bound in place of the original in every `digitsv.*` namespace
that holds it.  Modules import kernels by name (`from .hmm import fb_align`),
so patching only the defining module would miss those calls.

Each wrapped call is a span on one stack.  A function's `s` is the wall time
of its outermost calls, `self_s` that time minus the time of wrapped callees,
and a module's `s` is the time of its outermost calls into itself.
`trace.overhead_s` is the time the wrappers spend outside the functions they
wrap, measured in the traced pass itself.  Layer functions that a later
version removes or renames are reported as absent and their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import Counter, defaultdict

METHODS = {
    "pipeline": {"SpeakerSystem": ("dnn_alignment", "alignment", "stats_posteriors"),
                 "AlignmentCache": ("dnn_align", "stats_posteriors")},
    "pgmm": {"PgmmEmAccumulator": ("add", "merge")},
}

CACHE_LOOKUP = "pipeline.AlignmentCache.stats_posteriors"
CACHE_FILL = "pipeline.SpeakerSystem.stats_posteriors"
CONTENT_LOOKUP = "pipeline.score_content_trials"
CONTENT_FILL = "content_kl.content_verify"

# functions whose per-layer metrics the benchmark reports: name -> fields
LAYERS = {
    "map_speaker.llr_score": ("s", "self_s", "calls"),
    "map_speaker.enroll": ("s",),
    "hmm.train_hmm_set": ("self_s",),
    "hmm.fb_align": ("s", "calls", "frames"),
    "hmm.fb_align_hybrid": ("s", "calls", "frames"),
    "hmm.viterbi_align": ("s", "calls", "frames"),
    "hmm.compile_graph": ("s", "calls"),
    "gmm.log_weighted_densities": ("s", "calls", "frames"),
    "gmm.log_likelihoods": ("s", "calls", "frames"),
    "gmm.component_posterior_matrix": ("s", "calls", "frames"),
    "gmm.train_em": ("s",),
    "neural_aligner.train_mlp": ("s",),
    "neural_aligner.loss_and_gradients": ("s", "calls"),
    "neural_aligner.mlp_posteriors": ("s", "calls", "frames"),
    "pgmm.mixture_posteriors": ("s", "calls"),
    "pgmm.ubm_mixture_posteriors": ("s", "calls"),
    "pgmm.accumulate_stats": ("s", "calls"),
    "pgmm.pgmm_em_step": ("s",),
    "pgmm.pgmm_objective": ("s",),
    "pgmm.PgmmEmAccumulator.add": ("s",),
    "ivector.train_tv": ("s",),
    "ivector.extract_ivector": ("s", "calls"),
    "ivector.train_backend": ("s",),
    "ivector.plda_score": ("s", "calls"),
    "content_kl.content_verify": ("s", "calls"),
    "synth.generate_corpus": ("s",),
}
# module totals the benchmark reports: module -> fields
MODULES = {
    "gmm": ("self_s",),
    "formats": ("s", "calls", "bytes_read", "bytes_written"),
    "features": ("s", "frames"),
    "eval_trials": ("s",),
    "pipeline": ("self_s",),
    "cli": ("self_s",),
}
UNITS = {"s": "s", "self_s": "s", "calls": "count", "frames": "frames",
         "bytes_read": "bytes", "bytes_written": "bytes"}


def _n_frames(x):
    shape = getattr(x, "shape", None)
    if shape is not None:
        return 1 if len(shape) == 1 else shape[0]
    return x.n_frames


def _frames_arg(index):
    return lambda args, result: _n_frames(args[index])


# frames a call processed, read from its arguments or result
FRAMES = {
    "hmm.fb_align": _frames_arg(1),
    "hmm.fb_align_hybrid": _frames_arg(1),
    "hmm.viterbi_align": _frames_arg(1),
    "gmm.log_weighted_densities": _frames_arg(1),
    "gmm.log_likelihoods": _frames_arg(1),
    "gmm.component_posterior_matrix": _frames_arg(1),
    "neural_aligner.mlp_posteriors": _frames_arg(1),
    "features.extract_fbank": lambda args, result: result.n_frames,
    "features.extract_mfcc": lambda args, result: result.n_frames,
}


class _Stat:
    __slots__ = ("calls", "s", "self_s", "frames", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.frames = 0
        self.active = 0


class Tracer:
    """Wraps digitsv's public callables; `install` patches, `uninstall` restores."""

    def __init__(self, package):
        self.package = package
        self.funcs = defaultdict(_Stat)
        self.mods = defaultdict(_Stat)
        self.counts = Counter()
        self.hook_errors = set()
        self.overhead_s = 0.0
        self._stack = []
        self._patches = []

    def _modules(self):
        mods = []
        for info in pkgutil.iter_modules(self.package.__path__):
            mods.append(importlib.import_module(f"{self.package.__name__}.{info.name}"))
        return mods

    def install(self):
        modules = self._modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{short}.{name}", short)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if inspect.isfunction(fn):
                        self._patch(cls, meth, self._wrap(fn, f"{short}.{cls_name}.{meth}", short))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, fn, name, module):
        stat, mod, stack = self.funcs[name], self.mods[module], self._stack
        frames = FRAMES.get(name)

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            parent = stack[-1][0] if stack else None
            span = [name, 0.0]
            stack.append(span)
            stat.active += 1
            mod.active += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat.active -= 1
                mod.active -= 1
                stat.calls += 1
                stat.self_s += dt - span[1]
                mod.self_s += dt - span[1]
                if stat.active == 0:
                    stat.s += dt
                if mod.active == 0:
                    mod.s += dt
                    mod.calls += 1
                if stack:
                    stack[-1][1] += dt
            try:
                self._observe(name, module, parent, args, kwargs, result, frames)
            except (AttributeError, IndexError, KeyError, TypeError, OSError):
                self.hook_errors.add(name)
            # time spent here outside fn; nested wrappers, inside dt, count their own
            self.overhead_s += time.perf_counter() - entered - dt
            return result

        return functools.wraps(fn)(wrapper)

    def _observe(self, name, module, parent, args, kwargs, result, frames):
        if frames is not None:
            n = frames(args, result)
            self.funcs[name].frames += n
            if module == "features":
                self.mods[module].frames += n
        if name == "gmm.log_weighted_densities":
            gmm = args[0]
            # the two (T x D) @ (D x C) products dominate the kernel
            self.counts["gmm.emission_flops"] += 4 * _n_frames(args[1]) * gmm.n_components * gmm.dim
        elif name == CACHE_LOOKUP:
            self.counts["alignment_cache.lookups"] += 1
        elif name == CACHE_FILL and parent == CACHE_LOOKUP:
            self.counts["alignment_cache.misses"] += 1
        elif name == CONTENT_LOOKUP:
            trials = args[1] if len(args) > 1 else kwargs["trials"]
            self.counts["content_cache.lookups"] += len(trials)
        elif name == CONTENT_FILL and parent == CONTENT_LOOKUP:
            self.counts["content_cache.misses"] += 1
        if module == "formats" and self.mods[module].active == 0:
            path = args[0] if args else kwargs.get("path")
            verb = name.split(".", 1)[1].split("_", 1)[0]
            if verb in ("read", "load"):
                self.counts["formats.bytes_read"] += os.path.getsize(path)
            elif verb in ("write", "save"):
                self.counts["formats.bytes_written"] += os.path.getsize(path)

    def absent(self):
        """Reported layer functions that this version of the program lacks."""
        needed = set(LAYERS) | {CACHE_LOOKUP, CACHE_FILL, CONTENT_LOOKUP, "cli.cli_dispatch"}
        return sorted(name for name in needed if name not in self.funcs)

    def metrics(self):
        out = {}
        for name, fields in LAYERS.items():
            stat = self.funcs.get(name, _Stat())
            for field in fields:
                out[f"{name}.{field}"] = (getattr(stat, field), UNITS[field])
        for module, fields in MODULES.items():
            stat = self.mods.get(module, _Stat())
            for field in fields:
                if field.startswith("bytes"):
                    value = self.counts[f"{module}.{field}"]
                else:
                    value = getattr(stat, field)
                out[f"{module}.{field}"] = (value, UNITS[field])
        dispatch = self.funcs.get("cli.cli_dispatch", _Stat())
        out["cli.dispatches"] = (dispatch.calls, "count")
        out["trace.overhead_s"] = (self.overhead_s, "s")
        out["gmm.emission_flops"] = (self.counts["gmm.emission_flops"], "flop")
        lookups = self.counts["alignment_cache.lookups"]
        misses = self.counts["alignment_cache.misses"]
        out["pipeline.alignment_cache.lookups"] = (lookups, "count")
        out["pipeline.alignment_cache.misses"] = (misses, "count")
        out["pipeline.alignment_cache.hit_ratio"] = (_hit_ratio(lookups, misses), "ratio")
        out["pipeline.content_cache.hit_ratio"] = (
            _hit_ratio(self.counts["content_cache.lookups"], self.counts["content_cache.misses"]),
            "ratio")
        return out


def _hit_ratio(lookups, misses):
    return 1.0 - misses / lookups if lookups else 0.0
