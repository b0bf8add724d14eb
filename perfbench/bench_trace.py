"""Per-layer spans and counters for finslerheat, installed from outside.

The package is not instrumented. ``installed`` replaces each traced
function at every name a caller looks it up by (module globals of the
package, or the class attribute for methods) with a wrapper that records
a span, and restores the originals on exit. The wrappers pass arguments
and results through untouched, so a traced run writes the same report
bytes as an untraced one.

A traced name that no longer exists gives its metrics the value
``NO_VALUE`` (-1), which no count or time can take: later changes may
delete or rename layers without touching the benchmark, and the result
line stays all numbers.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from gate import CG_CEILING

PACKAGE = "finslerheat"

#: (module, attribute, span name). The attribute is a module function,
#: ``Class.method``, ``*.method`` for that method on every class the
#: module defines, or ``*`` for every public function the module defines.
#: Specific spans come before groups, so a group span ("liyau") encloses
#: the specific one ("liyau.alpha_phi") when both wrap one function.
LAYERS = (
    ("heat", "DiffusionAssembly.advance", "heat.advance"),
    ("numerics", "cg_measure", "numerics.cg"),
    ("heat", "weighted_laplacian", "heat.assembly"),
    ("heat", "solve_heat_flow", "heat.solve"),
    ("heat", "Trajectory.export", "heat.export"),
    ("geometry", "gradient_field", "geometry.gradient_field"),
    ("metrics", "*.legendre", "metrics.legendre"),
    ("harnack", "verify_harnack", "harnack.verify"),
    ("harnack", "harnack_bound_lf", "harnack.bound_lf"),
    ("harnack", "theta_descriptor", "harnack.theta_descriptor"),
    ("harnack", "theta_conjugate", "harnack.theta_conjugate"),
    ("geometry", "finsler_distance", "geometry.distance"),
    ("liyau", "alpha_phi", "liyau.alpha_phi"),
    ("config", "load_config", "config.load"),
    ("runner", "build_problem", "runner.build_problem"),
    ("geometry", "ricci_lower_bound", "geometry.ricci_lower_bound"),
    ("runner", "convergence_table", "runner.convergence_table"),
    ("reporting", "compare", "reporting.compare"),
    ("semigroup", "*", "semigroup"),
    ("liyau", "*", "liyau"),
)

#: value of a metric that cannot be measured: its layer is gone, its
#: solver is not observable, or a ratio has no calls to divide by
NO_VALUE = -1

#: root span around the whole verb; its self time is the part of the
#: verb spent outside every traced layer
ROOT = "cli.verb"

#: span of the tracer's own work inside a traced layer (the CG residual
#: check); its time is taken out of every enclosing span's s and self_s
RESID = "trace.resid"

#: metrics beyond calls / s / self_s: (name, unit, better)
EXTRA_METRICS = (
    ("heat.advance.cols", "count", "lower"),
    ("heat.advance.us_per_col", "us", "lower"),
    ("numerics.cg.iters_per_call", "iters/call", "lower"),
    ("numerics.cg.matvecs", "count", "lower"),
    ("numerics.cg.stalled", "count", "lower"),
    ("numerics.cg.converged_frac", "frac", "higher"),
    ("numerics.cg.worst_rel_resid", "ratio", "lower"),
)


def span_names() -> list[str]:
    names = [ROOT]
    for _, _, name in LAYERS:
        if name not in names:
            names.append(name)
    return names


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric the tracer reports: (name, unit, better)."""
    out = []
    for name in span_names():
        out += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.s", "s", "lower"),
            (f"{name}.self_s", "s", "lower"),
        ]
    return out + list(EXTRA_METRICS)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counters: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def worst(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, -math.inf), value)

    def call(self, name: str, fn, args, kwargs):
        # re-entry into an open span of the same name is part of that span
        if any(self.spans[i][0] == name for i in self._open):
            return fn(*args, **kwargs)
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def totals(self) -> dict[str, dict]:
        """calls, s and self_s per span name, without the time of RESID
        spans in any of them."""
        excluded = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if name == RESID:
                while parent >= 0:
                    excluded[parent] += end - start
                    parent = self.spans[parent][3]
        duration = [end - start - ex for (_, start, end, _), ex in zip(self.spans, excluded)]
        child = [0.0] * len(self.spans)
        for (name, _, _, parent), d in zip(self.spans, duration):
            if parent >= 0 and name != RESID:
                child[parent] += d
        out: dict[str, dict] = {}
        for (name, _, _, _), d, inner in zip(self.spans, duration, child):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += d
            agg["self_s"] += d - inner
        return out

    def metrics(self, missing: set[str]) -> dict[str, float | int]:
        """Flat per-layer metrics; NO_VALUE for every metric of a missing
        layer, for unobserved CG counters, and for ratios of a layer that
        was never entered. A layer that exists but was never entered has
        0 calls and 0 s."""
        totals = self.totals()
        out: dict[str, float | int] = {}
        for name in span_names():
            agg = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in ("calls", "s", "self_s"):
                out[f"{name}.{key}"] = NO_VALUE if name in missing else agg[key]
        c = self.counters
        cols = int(c.get("advance.cols", 0))
        out["heat.advance.cols"] = NO_VALUE if "heat.advance" in missing else cols
        out["heat.advance.us_per_col"] = (
            1e6 * totals["heat.advance"]["s"] / cols if cols else NO_VALUE
        )
        calls = out["numerics.cg.calls"]
        observed = "numerics.cg" not in missing and not c.get("cg.unobserved")
        matvecs = int(c.get("cg.matvecs", 0))
        out["numerics.cg.matvecs"] = matvecs if observed else NO_VALUE
        out["numerics.cg.stalled"] = int(c.get("cg.stalled", 0)) if observed else NO_VALUE
        if observed and calls:
            out["numerics.cg.iters_per_call"] = (matvecs - calls) / calls
            out["numerics.cg.converged_frac"] = c.get("cg.converged", 0) / calls
            out["numerics.cg.worst_rel_resid"] = c["cg.worst_resid"]
        else:
            for key in ("iters_per_call", "converged_frac", "worst_rel_resid"):
                out[f"numerics.cg.{key}"] = NO_VALUE
        return out


def _advance_observer(tracer: Tracer, fn):
    def observe(args, kwargs):
        values = args[1] if len(args) > 1 else next(iter(kwargs.values()))
        tracer.add("advance.cols", values.shape[1] if np.ndim(values) == 2 else 1)
        return tracer.call("heat.advance", fn, args, kwargs)

    return observe


def _cg_observer(tracer: Tracer, fn):
    """Counts operator applications and measures the residual each solve
    returns, in the measure norm, against its requested tolerance.

    A solver whose signature or right-hand side is not the expected one
    (``apply_op``, ``rhs``, ``sigma``; one vector) is only timed, and its
    counters are reported as NO_VALUE.
    """
    params = inspect.signature(fn).parameters
    names = list(params)
    default_tol = params["rel_tol"].default if "rel_tol" in params else 0.0

    def timed(args, kwargs):
        tracer.add("cg.unobserved", 1)
        return tracer.call("numerics.cg", fn, args, kwargs)

    if not {"apply_op", "rhs", "sigma"} <= set(names):
        return timed

    def observe(args, kwargs):
        a = dict(zip(names, args), **kwargs)
        apply_op, rhs, sigma = a["apply_op"], a["rhs"], a["sigma"]
        if np.ndim(rhs) != 1:
            return timed(args, kwargs)

        def counted(x):
            tracer.add("cg.matvecs", 1)
            return apply_op(x)

        a["apply_op"] = counted
        x = tracer.call("numerics.cg", fn, (), a)
        resid = tracer.call(RESID, _relative_residual, (apply_op, rhs, sigma, x), {})
        target = max(a.get("rel_tol", default_tol), 64.0 * np.finfo(float).eps)
        tracer.worst("cg.worst_resid", resid)
        tracer.add("cg.converged", resid <= CG_CEILING)
        # a solve that met its tolerance lands at or just above it; twice
        # the tolerance means the stagnation exit ended it
        tracer.add("cg.stalled", resid > 2.0 * target)
        return x

    return observe


def _relative_residual(apply_op, rhs, sigma, x) -> float:
    """Measure-norm residual of ``x`` relative to that of ``rhs``."""
    r = rhs - apply_op(x)
    norm_rhs = math.sqrt(max(float(np.dot(rhs * sigma, rhs)), 1e-300))
    return math.sqrt(float(np.dot(r * sigma, r))) / norm_rhs


OBSERVERS = {"heat.advance": _advance_observer, "numerics.cg": _cg_observer}


def _package_modules():
    return [
        m
        for key, m in list(sys.modules.items())
        if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def _resolve(module, attr: str):
    """(owner, attribute name, function) triples the layer wraps."""
    if attr == "*":
        return [
            (None, key, fn)
            for key, fn in vars(module).items()
            if inspect.isfunction(fn)
            and inspect.unwrap(fn).__module__ == module.__name__
            and not key.startswith("_")
        ]
    if "." in attr:
        cls_name, method = attr.split(".", 1)
        if cls_name == "*":
            owners = [
                c
                for c in vars(module).values()
                if inspect.isclass(c)
                and c.__module__ == module.__name__
                and method in vars(c)
            ]
        else:
            owner = getattr(module, cls_name, None)
            owners = [owner] if inspect.isclass(owner) and hasattr(owner, method) else []
        return [(c, method, getattr(c, method)) for c in owners]
    fn = getattr(module, attr, None)
    return [(None, attr, fn)] if callable(fn) else []


def _wrapper(tracer: Tracer, name: str, fn):
    factory = OBSERVERS.get(name)
    if factory is not None:
        observe = factory(tracer, fn)
    else:
        def observe(args, kwargs):
            return tracer.call(name, fn, args, kwargs)

    def traced(*args, **kwargs):
        return observe(args, kwargs)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer for the duration of the block.

    Yields the set of span names whose target was not found.
    """
    importlib.import_module(f"{PACKAGE}.cli")
    restore: list[tuple[object, str, object]] = []
    missing: set[str] = set()
    try:
        for mod_name, attr, name in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                missing.add(name)
                continue
            targets = _resolve(module, attr)
            if not targets:
                missing.add(name)
            for owner, key, fn in targets:
                wrapped = _wrapper(tracer, name, fn)
                if owner is not None:
                    restore.append((owner, key, vars(owner).get(key)))
                    setattr(owner, key, wrapped)
                    continue
                for m in _package_modules():
                    for global_name, value in list(vars(m).items()):
                        if value is fn:
                            restore.append((m, global_name, fn))
                            setattr(m, global_name, wrapped)
        yield missing
    finally:
        for owner, key, old in reversed(restore):
            if old is None:
                delattr(owner, key)
            else:
                setattr(owner, key, old)
