"""Per-layer spans and counters, recorded from outside the program.

``install`` replaces the public functions of each package module (plus
``FiniteVessel.B``/``X`` and the ``suite.CHECKS`` entries) with wrappers
that record a span (name, start, end, parent, operation) while the tracer
is enabled, and counts numpy ``inv``/``solve``/``det``/``slogdet`` calls
against the layer of the innermost open span.  Spans stay in memory and
are written once at the end.  A layer is a package module; a span's self
time is its duration minus the spans it directly contains.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import defaultdict

import numpy as np

LINALG = ("inv", "solve", "det", "slogdet")

# span fields
NAME, LAYER, START, END, PARENT, OP = range(6)


def linalg_flops(fname, args):
    """Flops of one LAPACK call, computed from operand sizes (not measured).

    LU 2/3 n^3, inverse from LU 4/3 n^3, triangular solves 2 n^2 per
    right-hand side; complex operands count 4 real flops per complex one.
    """
    a = np.asarray(args[0])
    n = a.shape[-1]
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    flops = 2.0 / 3.0 * n**3
    complex_ = np.iscomplexobj(a)
    if fname == "inv":
        flops += 4.0 / 3.0 * n**3
    elif fname == "solve":
        b = np.asarray(args[1])
        flops += 2.0 * n**2 * (b.shape[-1] if b.ndim >= 2 else 1)
        complex_ = complex_ or np.iscomplexobj(b)
    return (4.0 if complex_ else 1.0) * batch * flops


class Tracer:
    """Span store plus the counters the spans cannot carry."""

    def __init__(self, vessel_error=Exception, phase_switch=8.0):
        self.enabled = False
        self.op = -1
        self.spans = []
        self.stack = []
        self.linalg = defaultdict(lambda: [0, 0.0])  # layer -> [calls, flops]
        self.errors = defaultdict(int)  # layer where a VesselError was raised
        self.soliton_points = 0
        self.soliton_scaled = 0
        self.rk4_steps = 0
        self._vessel_error = vessel_error
        self._phase_switch = phase_switch

    def traced(self, orig, name, hook=None):
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs)
            stack = tracer.stack
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            except tracer._vessel_error as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.errors[layer] += 1
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return wrapper

    def counted(self, orig, fname):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.enabled and tracer.stack:
                entry = tracer.linalg[tracer.spans[tracer.stack[-1]][LAYER]]
                entry[0] += 1
                entry[1] += linalg_flops(fname, args)
            return orig(*args, **kwargs)

        return wrapper

    def write_spans(self, path):
        """gzip CSV: op,id,parent,name,start,end (seconds, perf_counter)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,start,end\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{s[OP]},{i},{s[PARENT]},{s[NAME]},{s[START]!r},{s[END]!r}\n")


def _soliton_hook(tracer, args, kwargs):
    # beta_soliton / q_soliton / log_tau_soliton (spec, x, t): count points
    # and those past the phase switch where the scaled branch takes over
    spec, x, t = args[:3]
    xb, tb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    k = np.asarray(spec.k, dtype=float)[:, None]
    phi = (k * xb.reshape(1, -1) + k**3 * tb.reshape(1, -1)).max(axis=0)
    tracer.soliton_points += phi.size
    tracer.soliton_scaled += int(np.count_nonzero(phi > tracer._phase_switch))


def _integrate_hook(tracer, args, kwargs):
    t_grid = args[2] if len(args) > 2 else kwargs["t_grid"]
    tracer.rk4_steps += len(t_grid) - 1


_HOOKS = {
    "soliton.beta_soliton": _soliton_hook,
    "soliton.q_soliton": _soliton_hook,
    "soliton.log_tau_soliton": _soliton_hook,
    "evolution.integrate_b": _integrate_hook,
}


def install(tracer, modules, linalg_module):
    """Wrap the public functions of ``modules`` (layer name -> module).

    Public means a function defined in that module whose name has no
    leading underscore.  ``core.FiniteVessel.B``/``X`` and every
    ``suite.CHECKS`` entry are wrapped too, and the numpy linalg entry
    points are counted.  Returns the list of wrapped span names.
    """
    wrapped = []
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            setattr(mod, attr, tracer.traced(obj, name, _HOOKS.get(name)))
            wrapped.append(name)
    vessel_cls = modules["core"].FiniteVessel
    for attr in ("B", "X"):
        name = f"core.FiniteVessel.{attr}"
        setattr(vessel_cls, attr, tracer.traced(getattr(vessel_cls, attr), name))
        wrapped.append(name)
    checks = modules["suite"].CHECKS
    for check in list(checks):
        name = f"suite.check.{check}"
        checks[check] = tracer.traced(checks[check], name)
        wrapped.append(name)
    for fname in LINALG:
        setattr(linalg_module, fname, tracer.counted(getattr(linalg_module, fname), fname))
    return wrapped


def _has_ancestor(spans, i, pred):
    p = spans[i][PARENT]
    while p >= 0:
        if pred(spans[p]):
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(tracer, passes, rows_out, bytes_out, check_names):
    """Per-pass per-layer metrics as {name: (value, unit)}.

    Counts are totals over the traced passes divided by the pass count;
    every pass runs the same operations, so they come out exact.  ``*_s``
    are inclusive span times per pass, except ``cli.self_s``.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    incl = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        incl[s[NAME]] += dur
        calls[s[NAME]] += 1
        self_time[s[LAYER]] += dur - child[i]

    evaluate_under_transfer = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "core.evaluate" and _has_ancestor(spans, i, lambda a: a[LAYER] == "transfer"))
    rhs_under_integrate = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "evolution.dbnt_rhs"
        and _has_ancestor(spans, i, lambda a: a[NAME] == "evolution.integrate_b"))

    def per(v):
        return v / passes

    def ratio(num, den):
        return num / den if den else 0.0

    rows = per(rows_out)
    core_linalg_calls, core_flops = tracer.linalg["core"]
    out = {
        "cli.self_s": (per(self_time["cli"]), "s"),
        "cli.bytes_out": (per(bytes_out), "B"),
        "cli.rows_out": (rows, "count"),
        "core.evaluate_calls": (per(calls["core.evaluate"]), "count"),
        "core.evaluate_s": (per(incl["core.evaluate"]), "s"),
        "core.tau_calls": (per(calls["core.tau"]), "count"),
        "core.tau_s": (per(incl["core.tau"]), "s"),
        "core.linalg_calls": (per(core_linalg_calls), "count"),
        "core.linalg_calls_per_point": (ratio(per(core_linalg_calls), rows), "calls/point"),
        "core.linalg_flops_computed": (round(per(core_flops)), "flop"),
        "core.lyapunov_residual_calls": (per(calls["core.lyapunov_residual"]), "count"),
        "core.lyapunov_residual_s": (per(incl["core.lyapunov_residual"]), "s"),
        "core.errors": (per(tracer.errors["core"]), "count"),
        "spectral.build_s": (per(incl["spectral.build_discrete_vessel"]
                                 + incl["spectral.build_quadrature_vessel"]), "s"),
        "spectral.trig_kernel_calls": (per(calls["spectral.trig_kernel"]), "count"),
        "spectral.trig_kernel_s": (per(incl["spectral.trig_kernel"]), "s"),
        "spectral.X_assemblies_per_point": (ratio(per(calls["core.FiniteVessel.X"]), rows),
                                            "calls/point"),
        "soliton.build_s": (per(incl["soliton.build_soliton"]), "s"),
        "soliton.trace_calls": (per(sum(calls[f"soliton.{f}"] for f in
                                        ("beta_soliton", "q_soliton", "log_tau_soliton"))),
                                "count"),
        "soliton.trace_s": (per(sum(incl[f"soliton.{f}"] for f in
                                    ("beta_soliton", "q_soliton", "log_tau_soliton"))), "s"),
        "soliton.trace_points": (per(tracer.soliton_points), "count"),
        "soliton.scaled_frac": (ratio(tracer.soliton_scaled, tracer.soliton_points), "fraction"),
        "verify.q_from_beta_s": (per(incl["verify.q_from_beta"]), "s"),
        "verify.kdv_residual_s": (per(incl["verify.kdv_residual"]), "s"),
        "verify.fd_derivative_calls": (per(calls["verify.fd_derivative"]), "count"),
        "transfer.eval_S_calls": (per(calls["transfer.eval_S"]), "count"),
        "transfer.eval_S_s": (per(incl["transfer.eval_S"]), "s"),
        "transfer.evaluate_per_S": (ratio(evaluate_under_transfer, calls["transfer.eval_S"]),
                                    "calls/S"),
        "transfer.gl_residual_s": (per(incl["transfer.gl_residual"]), "s"),
        "evolution.lattice_build_s": (per(incl["evolution.make_lattice"]), "s"),
        "evolution.rhs_calls": (per(calls["evolution.dbnt_rhs"]), "count"),
        "evolution.rhs_s": (per(incl["evolution.dbnt_rhs"]), "s"),
        "evolution.integrate_s": (per(incl["evolution.integrate_b"]), "s"),
        "evolution.rhs_per_step": (ratio(rhs_under_integrate, tracer.rk4_steps), "calls/step"),
    }
    for check in check_names:
        out[f"suite.check_s.{check}"] = (per(incl[f"suite.check.{check}"]), "s")
    return out
