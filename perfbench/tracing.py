"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced function by a wrapper, rebinding
every name under which a ``semifree`` module holds it (``from .algebra
import compose`` copies the binding, so the defining module alone is not
enough).  Each call records a span: function, start, end, parent span and
job.  Self time is a span's duration minus the time its child spans cover,
and is summed online over every traced job; the spans themselves are kept
for the first traced job only, which bounds their memory.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("algebra", "dgcat", "rewrite", "constructions", "reduce",
          "twisted", "fukaya", "plumbing", "analysis", "cli")

# Functions the workloads' predictions rest on.  Small helpers called per
# word (word_degree, check_word, ...) are not wrapped: their time stays in
# the self time of the listed function that calls them, and wrapping them
# would multiply the tracing overhead.  twisted has no listed function, so
# all of its public functions are traced.
LISTED = {
    "algebra": ("compose", "leibniz_d", "NcPoly.__add__", "NcPoly.from_terms",
                "Ring.add", "Ring.mul"),
    "dgcat": ("hom_slice", "audit_d_squared", "new_semifree",
              "validate_functor", "push_poly", "from_json", "to_json",
              "SemifreeDgCat.gen_map"),
    "rewrite": ("match_rule", "normalize_poly", "new_relational",
                "RelationalDgCat.is_reducible"),
    "constructions": ("tensor",),
    "reduce": ("greedy_simplify", "cancel_pair", "change_basis"),
    "fukaya": ("build",),
    "plumbing": ("build_wrapped", "build_ginzburg", "ginzburg_witness"),
    "analysis": ("exact_rank", "truncated_cohomology", "change_coefficients",
                 "presentation_equal"),
    "cli": ("main",),
    "twisted": "public",
}


def _words_out(args, result):
    return (sum(len(ws) for ws in result.words_by_degree.values()),)


def _rank_sizes(args, result):
    rows = args[0]
    return len(rows), sum(len(r) for r in rows), result


def _match_hits(args, result):
    return (result is not None,)


def _terms(args, result):
    return len(args[1].terms), len(result.terms)


# Size and outcome counts, read from arguments and return values:
# function -> (observer, names of the values it returns).
OBSERVERS = {
    "dgcat.hom_slice": (_words_out, ("words_out",)),
    "analysis.exact_rank": (_rank_sizes, ("rows", "nnz", "rank")),
    "rewrite.match_rule": (_match_hits, ("hits",)),
    "rewrite.normalize_poly": (_terms, ("terms_in", "terms_out")),
}


def _targets(layer: str):
    """(qualified name, owner, attribute, function) for each traced function
    of a layer."""
    mod = importlib.import_module(f"semifree.{layer}")
    names = LISTED[layer]
    if names == "public":
        names = [name for name, obj in vars(mod).items()
                 if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                 and not name.startswith("_")]
    out = []
    for qual in names:
        owner = mod
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append((f"{layer}.{qual}", owner, attr,
                    inspect.getattr_static(owner, attr)))
    return out


class Tracer:
    def __init__(self):
        self.names = []      # function id -> "layer.function"
        self.calls = []      # function id -> calls
        self.self_s = []     # function id -> summed self time
        self.counts = {}     # "layer.function.key" -> summed observed size
        self.rebound = {}    # layer -> ["module.name", ...] bindings replaced
        # spans, one entry per call
        self.fn = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_job = 0
        self.keep_spans = True  # cleared after the first traced job
        self._stack = [[-1, 0.0]]  # [span id, time covered by children]

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("semifree.") and m is not None]
        for layer in LAYERS:
            self.rebound[layer] = []
            for qual, owner, attr, raw in _targets(layer):
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                wrapper = self._wrap(qual, fn)
                if inspect.isclass(owner):
                    setattr(owner, attr,
                            staticmethod(wrapper) if static else wrapper)
                    self.rebound[layer].append(f"{owner.__module__}."
                                               f"{owner.__name__}.{attr}")
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapper)
                            self.rebound[layer].append(
                                f"{mod.__name__}.{name}")

    def _wrap(self, qual: str, fn):
        fid = len(self.names)
        self.names.append(qual)
        self.calls.append(0)
        self.self_s.append(0.0)
        observe, keys = OBSERVERS.get(qual, (None, ()))
        keys = [f"{qual}.{key}" for key in keys]
        for key in keys:
            self.counts[key] = 0
        stack, calls, self_s, counts = (self._stack, self.calls, self.self_s,
                                        self.counts)
        spans_fn, spans_parent, spans_job = self.fn, self.parent, self.job
        starts, ends = self.start, self.end

        def wrapper(*args, **kwargs):
            keep = self.keep_spans
            span = len(spans_fn) if keep else -1
            if keep:
                spans_fn.append(fid)
                spans_parent.append(stack[-1][0])
                spans_job.append(self.current_job)
                starts.append(0.0)
                ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stack[-1][1] += t1 - t0
                self_s[fid] += t1 - t0 - frame[1]
                calls[fid] += 1
                if keep:
                    starts[span] = t0
                    ends[span] = t1
            if observe is not None:
                for key, value in zip(keys, observe(args, result)):
                    counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def metrics(self, jobs: int) -> tuple:
        """Per-job calls, self time and observed sizes, each layer's total
        self time, and the layers with no calls."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        for qual, calls, self_s in zip(self.names, self.calls, self.self_s):
            out[f"{qual}.calls"] = calls / jobs
            out[f"{qual}.self_s"] = self_s / jobs
            layer = qual.split(".", 1)[0]
            layer_self[layer] += self_s / jobs
            layer_calls[layer] += calls
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        for name, value in self.counts.items():
            out[name] = value / jobs
        hits = out.pop("rewrite.match_rule.hits")
        calls = out["rewrite.match_rule.calls"]
        out["rewrite.match_rule.hit_ratio"] = hits / calls if calls else 0.0
        unmeasured = [layer for layer in LAYERS if layer_calls[layer] == 0]
        return out, unmeasured

    def write_spans(self, path):
        """Spans as gzipped tab-separated lines: span, parent, job, function,
        start, end (seconds of the worker's performance counter)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\tparent\tjob\tfunction\tstart\tend\n")
            for i, (fid, parent, job, t0, t1) in enumerate(zip(
                    self.fn, self.parent, self.job, self.start, self.end)):
                f.write(f"{i}\t{parent}\t{job}\t{self.names[fid]}\t"
                        f"{t0:.9f}\t{t1:.9f}\n")
