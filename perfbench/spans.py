"""Span tracer that wraps dulackit's public functions from the outside.

`Tracer.install()` replaces every public function of the six modules (`cli`,
`family`, `series`, `expansion`, `oracle`, `loud`) at every name it is bound
to, including re-exports in the `dulackit` package and aliases such as
`loud._oracle_dulac_map`, plus scipy's `solve_ivp`/`quad` as bound in `oracle`
and `loud`.  `uninstall()` puts the originals back.  The `--trace 0` run
never calls `install()`, and the `--trace 1` run uninstalls before each of
its untraced jobs, so untraced jobs run the program unmodified.

Spans are kept in memory as tuples and written out when the run ends; a span
is recorded only while a job is running (`tracer.job` is set), so the
benchmark's own set-up and correctness checks never appear in the trace.
Hot scalar helpers and the series arithmetic get a call counter instead of a
span, because a span around each of their calls would cost more than the
call itself.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "family", "series", "expansion", "oracle", "loud")

# Called inside loops or integrands: counted, not spanned.
COUNT_ONLY = {
    "family.principal_part_on_circle",
    "loud.chart_transform",
    "loud.chart_inverse",
    "loud.g_poly",
    "loud.first_integral",
    "loud.ua_inverse_square",
    "loud.ua",
    "loud.gamma",
}

# TruncatedSeries operators, counted as series.mul and series.div.
SERIES_OPERATORS = {"__mul__": "series.mul", "__rmul__": "series.mul", "__truediv__": "series.div"}

SCIPY_BINDINGS = (("oracle", "solve_ivp"), ("oracle", "quad"), ("loud", "solve_ivp"))


def _solver_counters(tracer, name, out):
    for field in ("nfev", "njev", "nlu"):
        tracer.count(f"{name}.{field}", int(getattr(out, field, 0)))


def _quad_counters(tracer, name, out):
    # oracle always asks quad for full_output; the info dict is out[2]
    if isinstance(out, tuple) and len(out) >= 3 and isinstance(out[2], dict):
        tracer.count(f"{name}.neval", int(out[2].get("neval", 0)))


def _branch_counters(tracer, name, out):
    tracer.count("family.branch.total", 1)
    tracer.count("family.branch.exact", int(bool(out.exact)))


def _modes_counters(tracer, name, out):
    tracer.count("expansion.modes_used", int(out.meta.get("modes_used", 0)))


def _coefficients_variant(tracer, name, out):
    exact = all(not isinstance(c, float) for c in out.c)
    return f"{name}.{'exact' if exact else 'float'}"


# Post-call hooks read counters from returned values; a hook that returns a
# string renames the span (used to split exact and float coefficient runs).
POST_HOOKS = {
    "oracle.solve_ivp": _solver_counters,
    "loud.solve_ivp": _solver_counters,
    "oracle.quad": _quad_counters,
    "family.biggest_real_root_branch": _branch_counters,
    "expansion.dulac_time_coefficients": _modes_counters,
    "expansion.coefficients": _coefficients_variant,
}


class Tracer:
    """In-memory spans and counters for one traced pass.

    A span is (span_id, parent_id, job_id, name, start, end, error,
    outermost); parent_id is -1 for a span with no traced caller, and
    outermost is False when a span of the same name is already open (so
    recursive calls are not counted twice in busy time)."""

    def __init__(self):
        self.job = None
        self.spans = []
        self.counters = defaultdict(int)  # (job_id, name) -> total
        self._stack = []
        self._open = defaultdict(int)
        self._patched = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------------

    def count(self, name, n=1):
        if self.job is not None:
            self.counters[(self.job, name)] += n

    def _span_wrapper(self, name, fn):
        hook = POST_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            outermost = tracer._open[name] == 0
            tracer._stack.append(sid)
            tracer._open[name] += 1
            label, error = name, True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                if not error and hook is not None:
                    label = hook(tracer, name, out) or name
                tracer.spans[sid] = (sid, parent, tracer.job, label, start, end, error, outermost)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is not None:
                tracer.counters[(tracer.job, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import dulackit

        mods = {m: importlib.import_module(f"dulackit.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    make = self._count_wrapper if (short == "series" or name in COUNT_ONLY) else self._span_wrapper
                    wrappers[id(val)] = make(name, val)
        for owner in (dulackit, *mods.values()):
            for attr, val in list(vars(owner).items()):
                if id(val) in wrappers:
                    self._patch(owner, attr, wrappers[id(val)])
        for short, attr in SCIPY_BINDINGS:
            mod = mods[short]
            self._patch(mod, attr, self._span_wrapper(f"{short}.{attr}", getattr(mod, attr)))
        ts = mods["series"].TruncatedSeries
        for attr, name in SERIES_OPERATORS.items():
            self._patch(ts, attr, self._count_wrapper(name, getattr(ts, attr)))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- derived tables ----------------------------------------------------------

    def layers(self, jobs=None):
        """Per span name: calls, busy_s (outermost spans), self_s, errors,
        optionally restricted to a set of job ids."""
        child = defaultdict(float)
        for sid, parent, job, name, start, end, error, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        for sid, parent, job, name, start, end, error, outer in self.spans:
            if jobs is not None and job not in jobs:
                continue
            row = out[name]
            row["calls"] += 1
            row["errors"] += int(error)
            if outer:
                row["busy_s"] += end - start
            row["self_s"] += (end - start) - child[sid]
        return dict(out)

    def totals(self, jobs=None):
        """Counters summed over jobs, optionally restricted to a set of job ids."""
        out = defaultdict(int)
        for (job, name), n in self.counters.items():
            if jobs is None or job in jobs:
                out[name] += n
        return dict(out)

    def to_json(self):
        return {
            "spans": [list(s) for s in self.spans],
            "counters": [[job, name, n] for (job, name), n in sorted(self.counters.items())],
        }
