"""Span tracing of bisweep's layers from outside the package.

`Tracer.install` replaces module-level names (for example
``bisweep.transcription.propagate_smooth``) with wrappers that record one
span per call: name, start, end, parent span and a few attributes read from
the arguments or the result.  Every binding of a function is wrapped, so a
call is traced whichever module it is made from, and the binding's module is
kept as the span's ``via`` attribute.  Nothing under ``src/`` changes; a name
that a later version of the package no longer has is skipped, and the
metrics that depend on it read 0.

Spans stay in memory until `Tracer.dump`; `layer_metrics` turns them into the
per-layer numbers named in ``bench/README.md``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time

# propagation batch widths: one trajectory, line-search candidates, and the
# finite-difference gradient batches (2 * decision dimension, >= 80 at N = 40)
SMALL_MAX_B = 32


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "phase", "attrs")

    def __init__(self, index, name, parent, phase):
        self.index = index
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.phase = phase
        self.attrs = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _propagate_attrs(args, kwargs, out):
    ys = out[0]
    return {"B": int(ys.shape[1]), "steps": int(ys.shape[0] - 1)}


def _eval_many_attrs(args, kwargs, out):
    return {"B": int(out[0].shape[0])}


def _solve_lower_attrs(args, kwargs, out):
    return {"converged": bool(out.status.get("converged", False))}


def _least_squares_attrs(args, kwargs, out):
    return {"nfev": int(getattr(out, "nfev", 0))}


def _lower_budget(bound, caller):
    """Budget class of one solve_lower call, from its arguments and caller.

    recheck: the certificate's perturbed re-solves; final: the accurate solve
    at the end of solve_bilevel; cold: no warm start; refresh: the reduced
    budget of the upper descent; warm: a warm start at the full budget.
    """
    if caller.f_globals.get("__name__") == "bisweep.certificate":
        return "recheck"
    if caller.f_code.co_name == "solve_bilevel":
        return "final"
    if bound.arguments.get("warm") is None:
        return "cold"
    opts = bound.arguments.get("opts")
    if (opts is not None
            and opts.lower_max_iter == getattr(opts, "refresh_max_iter", None)
            and opts.lower_al_rounds == getattr(opts, "refresh_al_rounds", None)):
        return "refresh"
    return "warm"


# (module, attribute, span name, attribute reader)
TARGETS = (
    ("bisweep.geometry", "validate", "geometry.validate", None),
    ("bisweep.solver", "validate", "geometry.validate", None),
    ("bisweep.dynamics", "propagate_smooth", "dynamics.propagate", _propagate_attrs),
    ("bisweep.transcription", "propagate_smooth", "dynamics.propagate", _propagate_attrs),
    ("bisweep.solver", "propagate_smooth", "dynamics.propagate", _propagate_attrs),
    ("bisweep.dynamics", "integrate_smooth", "dynamics.integrate_smooth", None),
    ("bisweep.solver", "integrate_smooth", "dynamics.integrate_smooth", None),
    ("bisweep.dynamics", "integrate_catchup", "dynamics.integrate_catchup", None),
    ("bisweep.transcription:NLPInstance", "eval_many", "transcription.eval_many",
     _eval_many_attrs),
    ("bisweep.solver", "solve_lower", "solver.solve_lower", _solve_lower_attrs),
    ("bisweep.solver", "solve_bilevel", "solver.solve_bilevel", None),
    ("bisweep.solver", "nnls", "solver.nnls", None),
    ("bisweep.solver", "value_subgradient", "solver.value_subgradient", None),
    ("bisweep.certificate", "certify", "certificate.certify", None),
    ("bisweep.certificate", "extract_multipliers", "certificate.extract_multipliers", None),
    # extract_multipliers imports least_squares inside the function body, so
    # the call resolves through scipy.optimize's namespace
    ("scipy.optimize", "least_squares", "certificate.least_squares", _least_squares_attrs),
    ("bisweep.certificate", "sigma_value", "certificate.sigma", None),
    ("bisweep.certificate", "sigma_smooth_value", "certificate.sigma", None),
    ("bisweep.oracle", "brute_bilevel", "oracle.brute_bilevel", None),
    ("bisweep.oracle", "brute_lower", "oracle.brute_lower", None),
    ("bisweep.oracle", "sigma_sup_oracle", "oracle.sigma_sup", None),
)


def _resolve(target):
    mod_name, _, cls_name = target.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls_name) if cls_name else obj


class Tracer:
    """Records spans around calls into bisweep's modules while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = -1            # -1 during set-up, else the pass index
        self._stack: list[int] = []
        self._saved = []

    def _wrap(self, fn, name, via, attrs):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if name == "solver.solve_lower" else None

        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else -1, self.phase)
            span.attrs = {"via": via}
            if sig is not None:
                span.attrs["budget"] = _lower_budget(sig.bind(*args, **kwargs),
                                                     sys._getframe(1))
            spans.append(span)
            stack.append(span.index)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        for target, attr, name, attrs in TARGETS:
            try:
                owner = _resolve(target)
            except ImportError:
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            via = target.split(":")[0].rsplit(".", 1)[-1]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, via, attrs))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def dump(self, path):
        rows = [[s.name, s.start, s.end, s.parent, s.phase, s.attrs] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "phase", "attrs"],
                       "spans": rows}, fh)


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict:
    """Per-layer metrics of one run; counts and busy times are per pass."""
    P = float(max(passes, 1))
    timed = [s for s in spans if s.phase >= 0]
    by_name: dict[str, list[Span]] = {}
    for s in timed:
        by_name.setdefault(s.name, []).append(s)
    # time covered by children: per (parent, child name) and in total
    child_dur: dict[tuple[int, str], float] = {}
    all_children: dict[int, float] = {}
    for s in timed:
        if s.parent >= 0:
            key = (s.parent, s.name)
            child_dur[key] = child_dur.get(key, 0.0) + s.dur
            all_children[s.parent] = all_children.get(s.parent, 0.0) + s.dur

    def get(name):
        return by_name.get(name, [])

    def busy(sel):
        return sum(s.dur for s in sel) / P

    def count(sel):
        return len(sel) / P

    def minus_children(sel, child):
        return sum(s.dur - child_dur.get((s.index, child), 0.0) for s in sel) / P

    def width(s):
        return s.attrs.get("B", 0)   # absent when the call raised

    m = {}
    validates = [s.dur for s in spans if s.name == "geometry.validate"]
    m["geometry.validate_s"] = _median(validates)

    prop = get("dynamics.propagate")
    steps = sum(width(s) * s.attrs.get("steps", 0) for s in prop)
    m["dynamics.propagate.calls"] = count(prop)
    m["dynamics.propagate.trajectories"] = sum(width(s) for s in prop) / P
    m["dynamics.propagate.node_steps"] = steps / P
    m["dynamics.propagate.busy_s"] = busy(prop)
    m["dynamics.propagate.steps_per_s"] = steps / sum(s.dur for s in prop) if prop else 0.0
    b1 = [s for s in prop if width(s) == 1]
    small = [s for s in prop if 1 < width(s) <= SMALL_MAX_B]
    wide = [s for s in prop if width(s) > SMALL_MAX_B]
    m["dynamics.propagate.b1_ms"] = 1e3 * _median([s.dur for s in b1])
    m["dynamics.propagate.small_ms"] = 1e3 * _median([s.dur for s in small])
    m["dynamics.propagate.wide_ms"] = 1e3 * _median([s.dur for s in wide])
    m["dynamics.integrate_catchup.busy_s"] = busy(get("dynamics.integrate_catchup"))
    m["dynamics.integrate_smooth.calls"] = count(get("dynamics.integrate_smooth"))

    ev = get("transcription.eval_many")
    m["transcription.eval_many.calls"] = count(ev)
    m["transcription.eval_many.points"] = sum(width(s) for s in ev) / P
    m["transcription.eval_many.self_s"] = sum(
        s.dur - all_children.get(s.index, 0.0) for s in ev) / P

    lower = get("solver.solve_lower")
    conv = [s for s in lower if s.attrs.get("converged", False)]
    m["solver.lower.calls"] = count(lower)
    m["solver.lower.converged"] = count(conv)
    m["solver.lower.converged_ratio"] = len(conv) / len(lower) if lower else 0.0
    for budget in ("cold", "warm", "refresh", "final", "recheck"):
        sel = [s for s in lower if s.attrs["budget"] == budget]
        m[f"solver.lower.{budget}.calls"] = count(sel)
        m[f"solver.lower.{budget}.median_s"] = _median([s.dur for s in sel])
    grads = [s for s in ev if width(s) > SMALL_MAX_B]
    m["solver.lower.gradients"] = count(grads)
    m["solver.lower.gradient_ms"] = 1e3 * _median([s.dur for s in grads])
    m["solver.linesearch.trials"] = sum(width(s) for s in small) / P
    m["solver.linesearch.busy_s"] = busy(small)
    m["solver.upper.iterations"] = count([s for s in wide if s.attrs["via"] == "solver"])
    m["solver.upper.busy_s"] = minus_children(get("solver.solve_bilevel"), "solver.solve_lower")
    m["solver.kkt_nnls_s"] = busy(get("solver.nnls"))
    m["solver.value_subgradient_ms"] = 1e3 * _median(
        [s.dur for s in get("solver.value_subgradient")])

    m["certificate.certify.self_s"] = minus_children(get("certificate.certify"),
                                                     "solver.solve_lower")
    m["certificate.fit_s"] = busy(get("certificate.extract_multipliers"))
    m["certificate.fit_nfev"] = sum(s.attrs.get("nfev", 0)
                                    for s in get("certificate.least_squares")) / P
    m["certificate.recheck_s"] = busy([s for s in lower if s.attrs["budget"] == "recheck"])
    m["certificate.sigma.busy_s"] = busy(get("certificate.sigma"))

    bb = get("oracle.brute_bilevel")
    bl = get("oracle.brute_lower")
    bb_idx = {s.index for s in bb}
    m["oracle.brute_bilevel.busy_s"] = busy(bb)
    m["oracle.brute_lower.calls"] = count(bl)
    m["oracle.brute_lower.busy_s"] = busy(bl)
    m["oracle.candidates"] = count([s for s in bl if s.parent in bb_idx])
    m["oracle.sigma_sup.busy_s"] = busy(get("oracle.sigma_sup"))
    m["trace.spans"] = len(timed) / P
    return m
