"""Span tracer that wraps the public functions of every hasseorder module.

The tracer lives outside the library: `install` replaces each public
function and method with a timing wrapper, at every place the original is
bound (module globals, class dicts, dict values such as `suites.SUITES`,
and names re-exported by other modules such as `cli.evaluate`).

Every call is a span.  Coarse spans (suites, requests, `decompose`,
`full_norm_trace`, `embedding_root`) are kept individually with their
start, end and parent; hot leaf calls are aggregated by
`(function, parent function)` so a verify pass with a million leaf calls
does not fill memory.  Self time is a span's duration minus the time its
direct child spans cover, computed when the span closes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

PACKAGE = "hasseorder"

# Functions reported one by one, per module (qualified names).
REPORTED = {
    "ff": ("field", "embedding_root", "FFElem.__mul__", "FFElem.inv",
           "FFElem.frobenius"),
    "localring": ("base_ring", "unramified", "RingElem.__mul__",
                  "RingElem.inv", "LocalRingCtx.frobenius",
                  "LocalRingCtx.to_base", "LocalRingCtx.rel_coords",
                  "LocalRingCtx.teich"),
    "linalg": ("det_leibniz", "det_berkowitz", "det_bareiss", "rmat_mul",
               "rmat_inv", "solve_columns", "ColumnSolver.solve",
               "kernel_log_size", "ff_rank"),
    "algebra": ("make", "DElem.__mul__", "DElem.inv", "DElem.trd_nrd",
                "DElem.full_norm_trace", "DElem.embed", "DElem.conjugate_by"),
    "tensor": ("make", "TensorElem.__mul__", "TensorElem.components",
               "TensorElem.sigma_left", "TensorOrderElem.__mul__",
               "TensorRingCtx.embed_l", "TensorRingCtx.milnor_preimage",
               "TensorRingCtx.peirce"),
    "modcat": ("decompose", "F", "H", "adjoint", "GradedPhiModule.validate"),
    "witt": ("WittCtx.__init__", "WittCtx.ghost", "WittVec.__add__",
             "WittVec.__mul__", "WittVec.frobenius"),
    "parser": ("evaluate",),
    "cli": ("main",),
}
MODULES = tuple(REPORTED) + ("suites",)

# Functions whose success rate is reported (successful calls / calls).
OK_RATIO = ("linalg.rmat_inv", "localring.RingElem.inv", "algebra.DElem.inv")

# Spans kept one by one (a request is one `cli.main` call); the suite
# functions are added by `install`.
COARSE = {"modcat.decompose", "algebra.DElem.full_norm_trace",
          "ff.embedding_root", "cli.main"}

# Left unwrapped: a verify pass is timed from outside suites.run, so the
# time it spends outside the six suite spans shows as unattributed instead
# of being absorbed into a root span's self time.
UNWRAPPED = {"suites.run"}

# Dunders that carry ring arithmetic; other dunders (__eq__, __hash__,
# __repr__, __init__) are wrapped only when REPORTED names them.
ARITH = {"__add__", "__sub__", "__neg__", "__mul__", "__pow__"}

ROOT = "<root>"


class Tracer:
    """Records spans through wrappers; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []      # coarse spans: [name, start, end, parent index]
        self.agg = {}        # (name, parent name) -> [calls, total, self, failed]
        self._stack = [[ROOT, 0.0, -1]]   # [name, child time, coarse index]
        self._patched = []   # (container, key, original) for uninstall

    # -- recording --------------------------------------------------------

    def wrap(self, fn, name, coarse=False):
        """Return `fn` wrapped so that each call records a span `name`."""
        clock, stack, agg, spans = self.clock, self._stack, self.agg, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if coarse:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent[2]])
            else:
                index = parent[2]
            frame = [name, 0.0, index]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                key = (name, parent[0])
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if not ok:
                    entry[3] += 1
                if coarse:
                    spans[index][1] = start
                    spans[index][2] = end

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public function of the hasseorder modules in place."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in MODULES}
        # suite functions are reached through suites.SUITES
        wrappers = {id(fn): self.wrap(fn, f"suites.{suite}", coarse=True)
                    for suite, fn in modules["suites"].SUITES.items()}
        for modname, mod in modules.items():
            reported = set(REPORTED.get(modname, ()))
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, meth in list(vars(obj).items()):
                        qual = f"{attr}.{mattr}"
                        public = not mattr.startswith("_") or mattr in ARITH
                        if inspect.isfunction(meth) and (public or qual in reported):
                            w = self._wrapper_for(meth, f"{modname}.{qual}", wrappers)
                            self._set(obj, mattr, w)
                elif _is_function(obj) and not attr.startswith("_") \
                        and getattr(obj, "__module__", None) == mod.__name__ \
                        and f"{modname}.{attr}" not in UNWRAPPED:
                    self._wrapper_for(obj, f"{modname}.{attr}", wrappers)
        # rebind every global and dict value that holds an original
        package = importlib.import_module(PACKAGE)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._set(mod, attr, w)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        w = wrappers.get(id(val))
                        if w is not None:
                            self._set(obj, key, w)
        return self

    def uninstall(self):
        for container, key, original in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patched.clear()

    def _wrapper_for(self, fn, name, wrappers):
        w = wrappers.get(id(fn))
        if w is None:
            w = wrappers[id(fn)] = self.wrap(fn, name, coarse=name in COARSE)
        return w

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._patched.append((container, key, container[key]))
            container[key] = value
        else:
            self._patched.append((container, key, vars(container)[key]))
            setattr(container, key, value)

    # -- results ----------------------------------------------------------

    def totals(self):
        """Per function name: [calls, total_s, self_s, failed]."""
        return merge_totals({name: vals} for (name, _parent), vals in self.agg.items())

    def export(self):
        """JSON-ready trace: coarse spans and the aggregated leaf table."""
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
            "aggregates": [{"name": n, "parent": par, "calls": c, "total_s": t,
                            "self_s": s, "failed": f}
                           for (n, par), (c, t, s, f) in self.agg.items()],
        }


def _is_function(obj):
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


def metric_names(suite_names):
    """Per-layer metric names, in report order."""
    names = []
    for mod, funcs in REPORTED.items():
        for fn in funcs:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    names += [f"{mod}.self_s" for mod in MODULES]
    names += [f"suites.{s}.total_s" for s in suite_names]
    names += [f"{name}.ok_ratio" for name in OK_RATIO]
    return names


def layer_metrics(totals, cycles, suite_names):
    """Per-layer metrics per workload cycle from merged `totals()`.

    `cycles` is the number of traced verify passes or request-list sweeps;
    call counts divide exactly because every cycle does the same work.
    """
    out = {}
    for mod, funcs in REPORTED.items():
        for fn in funcs:
            calls, _total, self_s, _failed = totals.get(f"{mod}.{fn}", (0, 0.0, 0.0, 0))
            out[f"{mod}.{fn}.calls"] = (_per(calls, cycles), "count")
            out[f"{mod}.{fn}.self_s"] = (self_s / cycles, "s")
    for mod in MODULES:
        self_s = sum(v[2] for k, v in totals.items() if k.split(".")[0] == mod)
        out[f"{mod}.self_s"] = (self_s / cycles, "s")
    for suite in suite_names:
        total = totals.get(f"suites.{suite}", (0, 0.0))[1]
        out[f"suites.{suite}.total_s"] = (total / cycles, "s")
    for name in OK_RATIO:
        calls, _total, _self, failed = totals.get(name, (0, 0.0, 0.0, 0))
        # base: the function's .calls; 0 when the workload never calls it
        out[f"{name}.ok_ratio"] = ((calls - failed) / calls if calls else 0.0, "ratio")
    return out


def merge_totals(parts):
    """Sum per-function [calls, total_s, self_s, failed] over `parts`."""
    out = {}
    for part in parts:
        for name, vals in part.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
    return out


def _per(count, cycles):
    return count // cycles if count % cycles == 0 else count / cycles
