"""Outside-in tracer for the tvalm layers.

The package's modules import each other's functions by name (``from .grid
import grad``), so patching ``tvalm.grid.grad`` alone would miss most calls.
``Tracer.install`` therefore rebinds every traced function in every
``tvalm.*`` module that holds it, and ``uninstall`` puts the originals back.
No code of the package is changed.

Each call into a traced function records a span (name, start, end, parent,
info) in memory; layer metrics are derived from the spans afterwards.  A
span's self time is its duration minus the durations of its direct children.
Checks that the tracer makes itself (the Krylov tolerance check) run with
tracing paused, and the paused time is taken out of the span clock.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from tvalm.errors import InnerNewtonError, MaxOuterError

TRACED = {
    "tvalm.grid": ("grad", "div"),
    "tvalm.prox": ("project_ball", "soft_threshold"),
    "tvalm.linops": ("blur_apply", "blur_adjoint", "h_apply", "cg_solve",
                     "bicgstab_solve", "motion_kernel", "blur_map"),
    "tvalm.ssn": ("ssnpdp_step", "ssnpdd_step", "ssnpt_step", "merit_phi",
                  "solve_subproblem"),
    "tvalm.alm": ("alm_run",),
    "tvalm.alg2": ("alg2_run",),
    "tvalm.metrics": ("make_record",),
    "tvalm.degrade": ("blocks_image", "degrade"),
}

# Newton-system and ALG2 prox operators are closures handed to the Krylov
# solvers as LinearMaps; wrapping the LinearMap those modules build keeps
# their arithmetic out of the Krylov self time.
SYSTEMS = {"tvalm.ssn": "ssn.system", "tvalm.alg2": "alg2.system"}

KRYLOV = ("linops.cg_solve", "linops.bicgstab_solve")
STEPS = ("ssn.ssnpdp_step", "ssn.ssnpdd_step", "ssn.ssnpt_step")

# Counters that must repeat exactly between two traced passes.
DETERMINISTIC = ("linops.krylov.iters", "ssn.newton_steps", "ssn.tight_resolves",
                 "alg2.iters", "alm.outer_iters")


def _norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(a * a)))


# Computed (not measured) compulsory traffic and operation counts per call,
# for float64 arrays: every input element read once, every output written once.
def _grad_work(tr, args, result, exc):
    m, n = args[0].shape
    return 24 * m * n, (m - 1) * n + m * (n - 1)


def _div_work(tr, args, result, exc):
    m, n = args[0].shape[1:]
    return 24 * m * n, 2 * (m - 1) * n + 2 * m * (n - 1)


def _blur_work(tr, args, result, exc):
    m, n = args[0].shape
    taps = args[1].taps
    return 16 * m * n, 2 * int(np.count_nonzero(taps)) * m * n


def _blur_adjoint_work(tr, args, result, exc):
    nbytes, flops = _blur_work(tr, args, result, exc)
    m, n = args[0].shape
    kh, kw = args[1].taps.shape
    # Folding the pad borders back onto the edge rows and columns.
    return nbytes, flops + (kh - 1) * (n + kw - 1) + (kw - 1) * m


def _krylov_info(tr, args, result, exc):
    """(iterations, tolerance met), the latter checked against the true
    residual with the operator called untraced."""
    if exc is not None:
        return getattr(exc, "iterations", 0), False
    A, b, cfg = args[:3]
    x, iters = result
    with tr.paused():
        met = _norm(A.apply(x) - b) <= cfg.rel_tol * _norm(b)
    return iters, met


def _newton_steps(tr, args, result, exc):
    if exc is None:
        return result.newton_steps
    if isinstance(exc, InnerNewtonError):
        return exc.iterations
    return None


def _alg2_iters(tr, args, result, exc):
    if exc is None:
        return result[0].k
    if isinstance(exc, MaxOuterError) and exc.state is not None:
        return exc.state.k
    return None


def _step_ok(tr, args, result, exc):
    return exc is None


INFO = {
    "grid.grad": _grad_work,
    "grid.div": _div_work,
    "linops.blur_apply": _blur_work,
    "linops.blur_adjoint": _blur_adjoint_work,
    "linops.cg_solve": _krylov_info,
    "linops.bicgstab_solve": _krylov_info,
    "ssn.solve_subproblem": _newton_steps,
    "ssn.ssnpt_step": _step_ok,
    "alg2.alg2_run": _alg2_iters,
}


class Tracer:
    """Span recorder for calls into the traced tvalm functions."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._paused_s = 0.0
        self._pausing = False
        self._bound: list = []

    def clock(self) -> float:
        """Seconds, excluding the time spent with tracing paused."""
        return time.perf_counter() - self._paused_s

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        self._pausing = True
        try:
            yield
        finally:
            self._pausing = False
            self._paused_s += time.perf_counter() - t0

    def _wrap(self, name, fn):
        spans, stack, info_of = self.spans, self._stack, INFO.get(name)

        def traced(*args, **kwargs):
            if self._pausing:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = exc = None
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = self.clock()
                stack.pop()
                info = info_of(self, args, result, exc) if info_of else None
                spans[idx] = (name, t0, t1, parent, info)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded tvalm module."""
        wrappers = {}
        for modname, funcs in TRACED.items():
            mod = sys.modules[modname]
            for func in funcs:
                original = getattr(mod, func)
                wrappers[id(original)] = (original,
                                          self._wrap(f"{modname[6:]}.{func}", original))
        for modname, mod in list(sys.modules.items()):
            if modname != "tvalm" and not modname.startswith("tvalm."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._bound.append((mod, attr, value))
        for modname, name in SYSTEMS.items():
            mod = sys.modules[modname]
            self._bound.append((mod, "LinearMap", mod.LinearMap))
            mod.LinearMap = self._traced_map(name, mod.LinearMap)

    def _traced_map(self, name, cls):
        def traced_map(apply, apply_adjoint, self_adjoint=False):
            return cls(self._wrap(name, apply), self._wrap(name, apply_adjoint),
                       self_adjoint)
        return traced_map

    def uninstall(self) -> None:
        for mod, attr, value in self._bound:
            setattr(mod, attr, value)
        self._bound.clear()

    @contextmanager
    def tracing(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def root_seconds(self) -> float:
        """Total duration of the top-level spans."""
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def write(self, path) -> None:
        """Write the spans as gzipped CSV: index,name,start_s,end_s,parent."""
        with gzip.open(path, "wt") as out:
            out.write("index,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent, _) in enumerate(self.spans):
                out.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent}\n")


def layer_metrics(spans) -> tuple[dict, list]:
    """Per-layer metrics from a pass's spans, and the per-outer-iteration rows
    (root span index, Newton steps, Krylov iterations) of every ALM subproblem."""
    child_s = [0.0] * len(spans)
    children = defaultdict(list)
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += t1 - t0
            children[parent].append(i)
    calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
    nbytes, flops = Counter(), Counter()
    for i, (name, t0, t1, parent, info) in enumerate(spans):
        calls[name] += 1
        incl[name] += t1 - t0
        self_s[name] += t1 - t0 - child_s[i]
        if name in ("grid.grad", "grid.div", "linops.blur_apply", "linops.blur_adjoint"):
            nbytes[name] += info[0]
            flops[name] += info[1]

    def root(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
        return i

    def ancestor(i, name):
        i = spans[i][3]
        while i >= 0 and spans[i][0] != name:
            i = spans[i][3]
        return i

    krylov_iters = 0
    krylov_met = 0
    iters_under = Counter()
    for i, (name, _, _, _, info) in enumerate(spans):
        if name in KRYLOV:
            krylov_iters += info[0]
            krylov_met += info[1]
            sub = ancestor(i, "ssn.solve_subproblem")
            if sub >= 0:
                iters_under[sub] += info[0]

    outer_rows = []
    tight = 0
    for i, (name, _, _, _, steps) in enumerate(spans):
        if name != "ssn.solve_subproblem":
            continue
        step_calls = sum(spans[c][0] in STEPS for c in children[i])
        steps = step_calls if steps is None else steps
        tight += step_calls - steps
        outer_rows.append((root(i), steps, iters_under[i]))
    newton = sum(r[1] for r in outer_rows)

    pt_trials = pt_accepted = 0
    for i, (name, _, _, _, ok) in enumerate(spans):
        if name == "ssn.ssnpt_step":
            merits = sum(spans[c][0] == "ssn.merit_phi" for c in children[i])
            pt_trials += max(merits - 1, 0)
            pt_accepted += int(ok and merits >= 2)

    alg2_iters = sum(info or 0 for name, _, _, _, info in spans if name == "alg2.alg2_run")
    krylov_calls = sum(calls[k] for k in KRYLOV)

    def per_call(counter, name):
        return counter[name] / calls[name] if calls[name] else 0.0

    m = {}
    for name in ("grid.grad", "grid.div", "prox.project_ball", "prox.soft_threshold",
                 "linops.blur_apply", "linops.blur_adjoint"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = incl[name]
    m["grid.bytes_computed"] = nbytes["grid.grad"] + nbytes["grid.div"]
    m["linops.blur.bytes_computed"] = (nbytes["linops.blur_apply"]
                                       + nbytes["linops.blur_adjoint"])
    for name in ("grid.grad", "grid.div", "linops.blur_apply", "linops.blur_adjoint"):
        m[f"{name}.bytes_computed_per_call"] = per_call(nbytes, name)
        m[f"{name}.flops_computed_per_call"] = per_call(flops, name)
    m["linops.h_apply.calls"] = calls["linops.h_apply"]
    m["linops.h_apply.self_s"] = self_s["linops.h_apply"]
    m["linops.krylov.calls"] = krylov_calls
    m["linops.krylov.iters"] = krylov_iters
    m["linops.krylov.self_s"] = sum(self_s[k] for k in KRYLOV)
    m["linops.krylov.iters_per_newton"] = (sum(iters_under.values()) / newton
                                           if newton else 0.0)
    m["linops.krylov.tol_met_ratio"] = krylov_met / krylov_calls if krylov_calls else 0.0
    m["ssn.system.calls"] = calls["ssn.system"]
    m["ssn.system.self_s"] = self_s["ssn.system"]
    m["alg2.system.self_s"] = self_s["alg2.system"]
    m["ssn.newton_steps"] = newton
    m["ssn.step.self_s"] = sum(self_s[s] for s in STEPS)
    m["ssn.tight_resolves"] = tight
    m["ssn.newton_max_per_outer"] = max((r[1] for r in outer_rows), default=0)
    m["ssn.merit.calls"] = calls["ssn.merit_phi"]
    m["ssn.merit.self_s"] = self_s["ssn.merit_phi"]
    m["ssn.armijo_accept_ratio"] = pt_accepted / pt_trials if pt_trials else 0.0
    m["alm.outer_iters"] = len(outer_rows)
    m["alm.self_s"] = self_s["alm.alm_run"]
    m["alg2.iters"] = alg2_iters
    m["alg2.self_s"] = self_s["alg2.alg2_run"]
    m["metrics.make_record.calls"] = calls["metrics.make_record"]
    m["metrics.make_record.s"] = incl["metrics.make_record"]
    return m, outer_rows


def counters(metrics: dict) -> dict:
    """The metrics that a deterministic program repeats exactly."""
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", "bytes_computed")) or k in DETERMINISTIC}
