"""Span tracing for the traced benchmark run, installed from outside the package.

``install`` replaces attributes of the ``circuitdual`` modules (and of the
classes ``RatFn``, ``BandedOp`` and ``MomentSeq``) with wrappers that record
a span or a count and then call the original.  Every module that imported a
name with ``from .x import name`` gets the wrapper too, so a call is seen
whichever module makes it.  Nothing in the package is edited, and the
untraced run never calls ``install``.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span in the same list, or -1; ``op`` identifies the benchmark
operation as [pass, index].  Spans stay in memory and are written out when
the run ends; ``layer_metrics`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name): the calls whose time a layer metric sums
SPANS = (
    ("rational", "poly_gcd", "rational.gcd"),
    ("rational", "RatFn.taylor_at_zero", "rational.taylor"),
    ("rational", "RatFn.eval", "rational.eval"),
    ("rational", "RatFn.__call__", "rational.eval"),
    ("family", "d_ratfn", "family.d_build"),
    ("family", "sign_scan", "family.sign_scan"),
    ("family", "figure_rows", "family.figure_rows"),
    ("family", "omega_eval", "family.omega_eval"),
    ("family", "counterexample_verdict", "family.verdict"),
    ("operators", "operator_report", "operators.report"),
    ("operators", "dual_moment_fiber0", "operators.closed_form"),
    ("oracle", "hsequence", "oracle.hsequence"),
    ("moments", "hausdorff_test", "moments.hausdorff"),
    ("moments", "stieltjes_test", "moments.stieltjes_{backend}"),
    ("files", "load_weight_spec", "files.load"),
    ("moments", "MomentSeq.from_file", "files.load"),
)

# (module, attribute, counter, size of one call): calls counted without a span
COUNTS = (
    ("operators", "two_isometry_check", "operators.residual_checks", len),
    ("oracle", "BandedOp.apply", "oracle.apply_calls", None),
    ("moments", "diff_transform", "moments.diff_evals", None),
)

# layer metric -> (kind, source); kinds: total time of the outermost spans,
# number of spans, a counter summed over the pass, a counter's maximum
LAYER_METRICS = {
    "rational.gcd_calls": ("spans", "rational.gcd"),
    "rational.gcd_s": ("time", "rational.gcd"),
    "rational.taylor_s": ("time", "rational.taylor"),
    "rational.max_coeff_bits": ("max", "rational.max_coeff_bits"),
    "rational.eval_calls": ("spans", "rational.eval"),
    "rational.eval_s": ("time", "rational.eval"),
    "family.d_build_s": ("time", "family.d_build"),
    "family.sign_scan_s": ("time", "family.sign_scan"),
    "family.bisect_evals": ("sum", "family.bisect_evals"),
    "family.figure_rows_s": ("time", "family.figure_rows"),
    "family.omega_eval_s": ("time", "family.omega_eval"),
    "family.verdict_s": ("time", "family.verdict"),
    "operators.report_s": ("time", "operators.report"),
    "operators.closed_form_s": ("time", "operators.closed_form"),
    "operators.residual_checks": ("sum", "operators.residual_checks"),
    "oracle.hsequence_s": ("time", "oracle.hsequence"),
    "oracle.apply_calls": ("sum", "oracle.apply_calls"),
    "moments.hausdorff_s": ("time", "moments.hausdorff"),
    "moments.diff_evals": ("sum", "moments.diff_evals"),
    "moments.stieltjes_exact_s": ("time", "moments.stieltjes_exact"),
    "moments.stieltjes_float_s": ("time", "moments.stieltjes_float"),
    "files.load_s": ("time", "files.load"),
    "cli.self_s": ("self", "cli"),
}

# counters that keep their largest value instead of summing (across workers too)
_MAX_COUNTERS = {source for kind, source in LAYER_METRICS.values() if kind == "max"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}    # (pass, index, counter) -> value
        self.started: dict = {}   # span name -> spans opened so far
        self.op = (None, None)
        self._stack: list = []

    def reset(self):
        self.spans, self.counts, self.started, self._stack = [], {}, {}, []

    def add(self, counter: str, value: int):
        key = (*self.op, counter)
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, counter: str, value: int):
        key = (*self.op, counter)
        self.counts[key] = max(self.counts.get(key, 0), value)

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span; ``name`` may use {backend}
        (the first argument's backend); ``after(args, result)`` runs once the
        span has closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name.format(backend=args[0].backend) if "{" in name else name
            tracer.started[label] = tracer.started.get(label, 0) + 1
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (label, start, end, parent, tracer.op)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name, fn, size=None):
        """Wrap fn so each call adds size(result), or 1, to a counter."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.add(name, size(result) if size else 1)
            return result

        return wrapper

    def export(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "counts": [[list(key[:2]), key[2], v] for key, v in self.counts.items()],
        }

    def merge(self, exported: dict):
        """Append spans and counts recorded by a forked worker."""
        offset = len(self.spans)
        for name, start, end, parent, op in exported["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, op))
        for op, counter, value in exported["counts"]:
            key = (*op, counter)
            merged = max if counter in _MAX_COUNTERS else int.__add__
            self.counts[key] = merged(self.counts.get(key, 0), value)


def _coeff_bits(f) -> int:
    coeffs = f.num.coeffs + f.den.coeffs
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
               default=0)


def install(tracer: Tracer):
    """Replace the traced attributes of every loaded circuitdual module."""
    modules = [m for name, m in sys.modules.items()
               if name == "circuitdual" or name.startswith("circuitdual.")]
    package = sys.modules["circuitdual"]

    def replace(module, path, make):
        owner = getattr(package, module)
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def after_build(args, result):
        tracer.peak("rational.max_coeff_bits", _coeff_bits(result))

    def scan_evals(fn):
        # evaluations beyond the grid are the bisection's
        def wrapper(*args, **kwargs):
            before = tracer.started.get("rational.eval", 0)
            report = fn(*args, **kwargs)
            done = tracer.started.get("rational.eval", 0)
            tracer.add("family.bisect_evals", done - before - report.steps)
            return report
        return wrapper

    for module, path, name in SPANS:
        if name == "family.d_build":
            replace(module, path, lambda fn, name=name: tracer.span(name, fn, after_build))
        elif name == "family.sign_scan":
            replace(module, path, lambda fn, name=name: tracer.span(name, scan_evals(fn)))
        else:
            replace(module, path, lambda fn, name=name: tracer.span(name, fn))
    for module, path, name, size in COUNTS:
        replace(module, path, lambda fn, name=name, size=size: tracer.counter(name, fn, size))


def layer_metrics(exported: dict, passes: int) -> dict:
    """Each layer metric's smallest per-pass total over the timed passes
    (pass >= 0); counts are the same in every pass."""
    spans = exported["spans"]
    per_pass = [{metric: 0 for metric in LAYER_METRICS} for _ in range(passes)]
    by_name = {}
    for metric, (kind, source) in LAYER_METRICS.items():
        by_name.setdefault(source, []).append((metric, kind))
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent, op) in enumerate(spans):
        if op[0] is None or op[0] < 0 or name not in by_name:
            continue
        outermost = True
        up = parent
        while up >= 0:
            if spans[up][0] == name:
                outermost = False
                break
            up = spans[up][3]
        for metric, kind in by_name[name]:
            if kind == "spans":
                per_pass[op[0]][metric] += 1
            elif kind == "time" and outermost:
                per_pass[op[0]][metric] += end - start
            elif kind == "self":
                per_pass[op[0]][metric] += end - start - child_time[index]
    for op, counter, value in exported["counts"]:
        if op[0] is None or op[0] < 0 or counter not in by_name:
            continue
        for metric, kind in by_name[counter]:
            row = per_pass[op[0]]
            row[metric] = max(row[metric], value) if kind == "max" else row[metric] + value
    return {metric: min(row[metric] for row in per_pass) for metric in LAYER_METRICS}
