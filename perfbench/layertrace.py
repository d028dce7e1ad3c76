"""Outside-in layer trace of the ncmetric package.

install() rebinds each traced function, in every loaded ncmetric.*
module namespace that holds it (aliases included), to a wrapper that
records a span: function, start, end, parent span and op id. Spans
live in flat arrays on a per-thread stack discipline; a span opened
on a thread with an empty stack (a worker of the props pool) takes the
current op's root span as its parent. uninstall() puts the original
functions back. The package source is never touched, and untraced
runs never install anything.

A traced function that the package no longer defines is skipped and
reads 0 calls. Outcome counters are read from return values and
exceptions, by attribute name, so a changed return type reads 0
rather than crashing the run.
"""

from __future__ import annotations

import importlib
import sys
import threading
from array import array
from time import perf_counter

TRACED = (
    "matcore.inverse",
    "matcore.psd_inv_sqrt",
    "matcore.is_strictly_positive",
    "matcore.herm_eig",
    "matcore.operator_norm",
    "ncpoint.block_upper",
    "ncfunc.eval_mat",
    "ncfunc.delta_f",
    "domains.contains",
    "domains.gram",
    "domains.kernel_diffs",
    "metric.delta_ray",
    "metric.delta_closed",
    "metric.delta_kernel",
    "metric.delta_tilde",
    "metric.delta_auto_tilde",
    "metric.dtilde_upper",
    "metric.d_upper",
    "metric.check_contraction",
    "freeprob.cauchy_G",
    "freeprob.F_and_h",
    "freeprob.halfplane_gauge",
    "freeprob.subordination_solve",
    "freeprob.density_grid",
    "freeprob.k0_and_fixed_point",
    "sampling.sample_in_domain",
    "props.run_suite",
    "cli.main",
)

COUNTERS = (
    "domains.contains.inside",
    "metric.delta_ray.member_evals",
    "freeprob.subordination_solve.iterations",
    "freeprob.subordination_solve.unconverged",
    "freeprob.cauchy_G.level_gt1_calls",
)

_MARK = "__perfbench_original__"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ncmetric" or name.startswith("ncmetric."))]


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _on_contains(counts, args, kwargs, out, exc):
    counts["domains.contains.inside"] += bool(getattr(out, "inside", False))


def _on_delta_ray(counts, args, kwargs, out, exc):
    counts["metric.delta_ray.member_evals"] += int(getattr(out, "iterations", 0) or 0)


def _on_solve(counts, args, kwargs, out, exc):
    trace = getattr(exc, "trace", None) if exc is not None else (
        out[1] if isinstance(out, tuple) and len(out) > 1 else None)
    counts["freeprob.subordination_solve.iterations"] += int(getattr(trace, "iterations", 0) or 0)
    if type(exc).__name__ == "MaxIterExceeded":
        counts["freeprob.subordination_solve.unconverged"] += 1


def _on_cauchy(counts, args, kwargs, out, exc):
    b = _arg(args, kwargs, 1, "b")
    counts["freeprob.cauchy_G.level_gt1_calls"] += getattr(b, "level", 1) > 1


HOOKS = {
    "domains.contains": _on_contains,
    "metric.delta_ray": _on_delta_ray,
    "freeprob.subordination_solve": _on_solve,
    "freeprob.cauchy_G": _on_cauchy,
}


class Tracer:
    def __init__(self):
        self._patched = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self):
        self.fids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self.root = -1

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fid, fn, hook):
        tracer = self
        is_root = TRACED[fid] == "cli.main"

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            root = is_root and not stack
            with tracer._lock:
                idx = len(tracer.fids)
                tracer.fids.append(fid)
                tracer.parents.append(stack[-1] if stack else -1 if root else tracer.root)
                tracer.ops.append(tracer.op)
                tracer.starts.append(0.0)
                tracer.ends.append(0.0)
            if root:
                tracer.root = idx
            stack.append(idx)
            exc = out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
                if hook is not None:
                    hook(tracer.counts, args, kwargs, out, exc)

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self):
        modules = _package_modules()
        for fid, qual in enumerate(TRACED):
            mod_name, attr = qual.split(".")
            original = getattr(importlib.import_module("ncmetric." + mod_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(fid, original, HOOKS.get(qual))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @staticmethod
    def leftover_wrappers():
        """(module, name) of every wrapper still bound in an ncmetric module."""
        return [(m.__name__, key) for m in _package_modules()
                for key, value in vars(m).items() if hasattr(value, _MARK)]

    def call_counts(self):
        calls = [0] * len(TRACED)
        for fid in self.fids:
            calls[fid] += 1
        return dict(zip(TRACED, calls), **self.counts)

    def self_times(self):
        """Per-function self time: span minus the union of its children."""
        children = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                children.setdefault(p, []).append(i)
        totals = [0.0] * len(TRACED)
        starts, ends = self.starts, self.ends
        for i, fid in enumerate(self.fids):
            s, e = starts[i], ends[i]
            covered, reach = 0.0, s
            for k in sorted(children.get(i, ()), key=starts.__getitem__):
                lo, hi = max(starts[k], reach), min(ends[k], e)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[fid] += (e - s) - covered
        return dict(zip(TRACED, totals))

    def metrics(self):
        calls = self.call_counts()
        selfs = self.self_times()
        out = {}
        for qual in TRACED:
            out[f"{qual}.calls"] = (calls[qual], "count")
            out[f"{qual}.self_s"] = (selfs[qual], "s")
        n = calls["domains.contains"]
        out["domains.contains.inside_ratio"] = (
            calls["domains.contains.inside"] / n if n else 0.0, "ratio")
        for name in COUNTERS[1:]:
            out[name] = (calls[name], "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span,parent,op,function,start_s,end_s\n")
            t0 = self.starts[0] if len(self.starts) else 0.0
            for i, fid in enumerate(self.fids):
                fh.write(f"{i},{self.parents[i]},{self.ops[i]},{TRACED[fid]},"
                         f"{self.starts[i] - t0!r},{self.ends[i] - t0!r}\n")
