"""In-memory span tracer that instruments knotslope from outside.

Each instrumented function is replaced, in every loaded knotslope module
and class that binds it, by a wrapper that records a span (name, start,
end, parent) around the call.  Spans stay in plain lists until the run
ends; self time is derived from them afterwards.  Counters are taken at
the same boundaries, after the span has closed, so their cost lands in the
caller's self time rather than in the measured layer.

Spans inside colored_jones (the d/c/b/a levels, the cofactor table) need
hooks in the program itself and are not recorded here.
"""

from __future__ import annotations

import functools
import importlib
import logging
import os
import sys
from collections import Counter
from time import perf_counter

# Span at the op boundary of every workload: one knotslope CLI invocation.
ROOT_SPAN = "cli.main"
# Span per verified tuple inside a verify invocation.
TUPLE_SPAN = "pipeline.run_verification"


def resolve(target):
    """The object named by 'module:attr.attr'."""
    module_name, _, qualname = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def bindings(fn):
    """Every (namespace, attribute) of the loaded knotslope modules bound to fn.

    Covers 'from .x import f' rebindings and methods stored under several
    names (LaurentPoly.__mul__ is also __rmul__).
    """
    found = []
    for name, module in list(sys.modules.items()):
        if name != "knotslope" and not name.startswith("knotslope."):
            continue
        for attr, value in vars(module).items():
            if value is fn:
                found.append((module, attr))
            elif isinstance(value, type) and value.__module__ == name:
                found.extend((value, a) for a, v in vars(value).items() if v is fn)
    return found


class Tracer:
    """Spans and counters of one measured phase."""

    def __init__(self, read_root=None):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = [-1]
        self.counts = Counter()
        self.maxima = Counter()
        self._read_root = None if read_root is None else os.fspath(read_root) + os.sep
        self._patched = []
        self._active = False
        self._log_handler = None

    # -- instrumentation --------------------------------------------------

    def wrap(self, name, fn, observe=None, only_if=None):
        """fn with a span named name around each call.

        observe(args, result) runs after the span closes; calls for which
        only_if(args) is false run unrecorded.
        """
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_if is not None and not only_if(args):
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def count_calls(self, counter, fn):
        """fn with a call counter and no span, for calls too small to time."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets):
        """Patch every binding of each (target, wrapper factory) pair."""
        for target, make in targets:
            fn = resolve(target)
            owners = bindings(fn)
            if not owners:
                raise LookupError(f"{target} is bound nowhere in knotslope")
            wrapper = make(fn)
            for owner, attr in owners:
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        self._log_handler = _DiscardCounter(self.counts)
        logging.getLogger("knotslope").addHandler(self._log_handler)
        if self._read_root is not None:
            sys.addaudithook(self._on_audit)
        self._active = True

    def uninstall(self):
        self._active = False
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
        logging.getLogger("knotslope").removeHandler(self._log_handler)

    def _on_audit(self, event, args):
        # Audit hooks cannot be removed; an uninstalled tracer ignores events.
        if not self._active or event != "open":
            return
        path, mode, flags = args
        if isinstance(path, int) or path is None:
            return
        path = os.fspath(path)
        if isinstance(path, bytes):
            path = os.fsdecode(path)
        if mode:
            reading = "r" in mode and "+" not in mode
        else:
            reading = (flags & os.O_ACCMODE) == os.O_RDONLY
        if reading and path.startswith(self._read_root) and os.path.isfile(path):
            self.counts["pipeline.cache.bytes_read"] += os.path.getsize(path)

    # -- derived figures --------------------------------------------------

    def span_totals(self):
        """Per span name: (calls, inclusive seconds, self seconds); root seconds."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        totals = {}
        root = 0.0
        for i, name in enumerate(self.names):
            calls, incl, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, incl + dur[i], own + dur[i] - child[i])
            if self.parents[i] < 0:
                root += dur[i]
        return totals, root

    def durations(self, name, first=0):
        """Durations of the spans called name, from span number first on."""
        return [self.ends[i] - self.starts[i]
                for i in range(first, len(self.names)) if self.names[i] == name]


class _DiscardCounter(logging.Handler):
    """Counts warnings cache_load emits; each one is a discarded record."""

    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if record.funcName == "cache_load":
            self.counts["pipeline.cache.discards"] += 1


def _coeff_bits(poly):
    return max(abs(c).bit_length() for _, c in poly.terms())


def op_targets(tr):
    """Op-boundary spans plus the cache counters the warm guard needs."""

    def on_cache_load(args, result):
        tr.counts["pipeline.cache.loaded" if result is not None else "pipeline.cache.none"] += 1

    return [
        ("knotslope.cli:main", lambda fn: tr.wrap(ROOT_SPAN, fn)),
        ("knotslope.pipeline:run_verification", lambda fn: tr.wrap(TUPLE_SPAN, fn)),
        ("knotslope.pipeline:cache_load",
         lambda fn: tr.wrap("pipeline.cache_load", fn, on_cache_load)),
    ]


def layer_targets(tr):
    """op_targets plus a span at the public boundary of every layer."""
    counts, maxima = tr.counts, tr.maxima
    poly = resolve("knotslope.qlaurent:LaurentPoly")

    def poly_times_poly(args):
        return isinstance(args[1], poly)

    def on_mul(args, result):
        a, b = args
        counts["qlaurent.mul.term_pairs"] += len(a) * len(b)
        maxima["qlaurent.mul.operand_terms_max"] = max(
            maxima["qlaurent.mul.operand_terms_max"], len(a), len(b))
        maxima["qlaurent.mul.coeff_bits_max"] = max(
            maxima["qlaurent.mul.coeff_bits_max"], _coeff_bits(a), _coeff_bits(b))

    def on_exact_div(args, result):
        p = args[0]
        if not p.is_zero():
            maxima["qlaurent.exact_div.dividend_span"] = max(
                maxima["qlaurent.exact_div.dividend_span"], p.max_deg - p.min_deg)

    delta_args = set()

    def on_delta6j(args, result):
        delta_args.add(args)
        counts["ktg.delta6j.distinct_args"] = len(delta_args)

    def span(name, observe=None, only_if=None):
        return lambda fn: tr.wrap(name, fn, observe, only_if)

    return op_targets(tr) + [
        ("knotslope.qlaurent:LaurentPoly.__mul__", span("qlaurent.mul", on_mul, poly_times_poly)),
        ("knotslope.qlaurent:exact_div", span("qlaurent.exact_div", on_exact_div)),
        ("knotslope.ktg:theta", span("ktg.theta")),
        ("knotslope.ktg:delta6j", span("ktg.delta6j", on_delta6j)),
        ("knotslope.jones:colored_jones", span("jones.colored_jones")),
        ("knotslope.degopt:brute_max_objective", span("degopt.brute")),
        ("knotslope.degopt:degree_objective",
         lambda fn: tr.count_calls("degopt.brute.points", fn)),
        ("knotslope.degopt:fast_max_objective", span("degopt.fast")),
        ("knotslope.degopt:closed_form_dplus", span("degopt.closed")),
        ("knotslope.degopt:fit_quasi", span("degopt.fit")),
        ("knotslope.edgepath:boundary_slope", span("edgepath.boundary_slope")),
        ("knotslope.edgepath:euler_ratio", span("edgepath.euler_ratio")),
        ("knotslope.edgepath:slope_report", span("edgepath.slope_report")),
        ("knotslope.pipeline:predict", span("pipeline.predict")),
        ("knotslope.pipeline:cache_store", span("pipeline.cache_store")),
        ("knotslope.pipeline:Report.to_json", span("pipeline.report.to_json")),
        ("knotslope.pipeline:grid_run", span("pipeline.grid_run")),
    ]


def layer_metrics(tr, passes):
    """Every per-layer figure of a traced phase, per pass.

    Counts repeat exactly from pass to pass, so the per-pass value of a
    count is exact; times are the phase total divided by the pass count.
    """
    totals, _ = tr.span_totals()
    counts, maxima = tr.counts, tr.maxima

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    qb_hits = counts["knotslope.qlaurent.qbinom.hits"]
    qb_all = qb_hits + counts["knotslope.qlaurent.qbinom.misses"]
    delta_calls = calls("ktg.delta6j")
    discards = counts["pipeline.cache.discards"]
    per_pass = {
        "qlaurent.mul.calls": calls("qlaurent.mul"),
        "qlaurent.mul.self_s": own("qlaurent.mul"),
        "qlaurent.mul.term_pairs": counts["qlaurent.mul.term_pairs"],
        "qlaurent.exact_div.calls": calls("qlaurent.exact_div"),
        "qlaurent.exact_div.self_s": own("qlaurent.exact_div"),
        "ktg.theta.calls": calls("ktg.theta"),
        "ktg.theta.self_s": own("ktg.theta"),
        "ktg.delta6j.calls": delta_calls,
        "ktg.delta6j.self_s": own("ktg.delta6j"),
        "jones.colored_jones.calls": calls("jones.colored_jones"),
        "jones.colored_jones.self_s": own("jones.colored_jones"),
        "degopt.brute.calls": calls("degopt.brute"),
        "degopt.brute.self_s": own("degopt.brute"),
        "degopt.brute.points": counts["degopt.brute.points"],
        "degopt.fast.self_s": own("degopt.fast"),
        "degopt.closed.self_s": own("degopt.closed"),
        "degopt.fit.self_s": own("degopt.fit"),
        "edgepath.boundary_slope.self_s": own("edgepath.boundary_slope"),
        "edgepath.euler_ratio.self_s": own("edgepath.euler_ratio"),
        "edgepath.slope_report.self_s": own("edgepath.slope_report"),
        "pipeline.cache.hits": counts["pipeline.cache.loaded"],
        "pipeline.cache.misses": counts["pipeline.cache.none"] - discards,
        "pipeline.cache.discards": discards,
        "pipeline.cache.load_s": incl("pipeline.cache_load"),
        "pipeline.cache.bytes_read": counts["pipeline.cache.bytes_read"],
        "pipeline.cache.store_s": incl("pipeline.cache_store"),
        "pipeline.cache.bytes_written": counts["pipeline.cache.bytes_written"],
        "pipeline.report.to_json_s": incl("pipeline.report.to_json"),
        "pipeline.report.bytes": counts["pipeline.report.bytes"],
        "pipeline.predict.self_s": own("pipeline.predict"),
        "pipeline.grid_run.self_s": own("pipeline.grid_run"),
        "cli.main.self_s": own(ROOT_SPAN),
    }
    metrics = {k: v / passes for k, v in per_pass.items()}
    metrics.update({
        "qlaurent.mul.operand_terms_max": maxima["qlaurent.mul.operand_terms_max"],
        "qlaurent.mul.coeff_bits_max": maxima["qlaurent.mul.coeff_bits_max"],
        "qlaurent.exact_div.dividend_span": maxima["qlaurent.exact_div.dividend_span"],
        "qlaurent.qbinom.hit_ratio": qb_hits / qb_all if qb_all else 0.0,
        "ktg.delta6j.distinct_ratio": (
            counts["ktg.delta6j.distinct_args"] / delta_calls if delta_calls else 0.0),
    })
    return metrics
