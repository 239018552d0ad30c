"""Named verification checks: one per acceptance criterion, CLI-invocable.

The per-vessel bodies of the ``transfer``, ``scatter`` and ``verify``
commands live here too, with :func:`grid_fields`, the exact-field
evaluator that ``verify`` shares with the field dumps.  Each check
returns CheckResult entries with the measured value, the pinned
tolerance and pass/fail.  Three checks fail by construction for every
finite truncation (see the module docstrings of :mod:`kdvessel.spectral`
and :mod:`kdvessel.evolution`): the fixed-vector identity, the exact x/t
periodicity of the trigonometric vessel's beta, and the coefficient-flow
conservation law.  They are kept at their stated tolerances and report the
honest violation instead of being loosened.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import core, evolution, soliton, spectral, transfer, verify
from .exceptions import NumericalConsistencyError

__all__ = ["CheckResult", "CHECKS", "EXPECTED_FAILURES", "ERROR_BOUND_FAMILIES", "run_suite",
           "grid_fields", "transfer_checks", "scatter_checks", "verify_checks",
           "report_header", "format_report_lines", "report_as_dict"]


# How a sub-check's value is judged against its tolerance, keyed by the
# text the report prints between "need" and the tolerance.
_RULES = {
    "<": lambda value, tol: value < tol,
    ">": lambda value, tol: value > tol,
    "==": lambda value, tol: value == tol,
    "within 0.5 of": lambda value, tol: abs(value - tol) < 0.5,
}


@dataclass(frozen=True)
class CheckResult:
    """One sub-check, judged by ``passed = _RULES[rule](value, tolerance)``
    in :func:`_judged` and :meth:`at_tolerance`."""

    check: str
    value: float
    tolerance: float
    passed: bool
    runtime_ms: float
    detail: str = ""
    rule: str = "<"

    def at_tolerance(self, tolerance) -> "CheckResult":
        """This result judged by its rule at another tolerance."""
        tolerance = float(tolerance)
        return replace(self, tolerance=tolerance,
                       passed=bool(_RULES[self.rule](self.value, tolerance)))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"[{status}] {self.check}: value={self.value:.6e} "
            f"(need {self.rule} {self.tolerance:.3e}, {self.runtime_ms:.0f} ms)"
        )
        if self.detail and not self.passed:
            out += f"\n       {self.detail}"
        return out


def _judged(check, value, rule, tol, t0, detail="") -> CheckResult:
    """The sub-check ``value <rule> tol``, timed from the perf_counter t0."""
    value, tol = float(value), float(tol)
    return CheckResult(check, value, tol, bool(_RULES[rule](value, tol)),
                       (time.perf_counter() - t0) * 1e3, detail, rule)


# ---------------------------------------------------------------------------
# standard constructions used by the checks
# ---------------------------------------------------------------------------

def _gaussian_density(amplitude: float):
    return lambda s: amplitude * np.exp(-np.asarray(s, dtype=float) ** 2)


def _soliton_vessel(k, c):
    return soliton.build_soliton(soliton.SolitonSpec.from_c(k, c))


def _discrete_vessel(k, b):
    return spectral.build_discrete_vessel(
        spectral.DiscreteSpectrum(k=np.asarray(k, float), b=np.asarray(b, complex)))


def _quadrature_vessel(s_max, nodes, amplitude):
    spec = spectral.gauss_legendre_spectrum(s_max, nodes, _gaussian_density(amplitude))
    return spectral.build_quadrature_vessel(spec)


def grid_fields(vessel, grid):
    """beta, beta' and tau of a vessel on every grid point, indexed [ix, it],
    from :func:`core.evaluate_fields` (tau = inf past the float range)."""
    return core.evaluate_fields(vessel, *np.meshgrid(grid.xs, grid.ts, indexing="ij"))


# ---------------------------------------------------------------------------
# criterion 1: 1-soliton profile identity
# ---------------------------------------------------------------------------

def check_soliton_profile(level, rng):
    t0 = time.perf_counter()
    nx, nt = (401, 81) if level == "full" else (101, 21)
    grid = verify.Grid2D(-10.0, 10.0, nx, -2.0, 2.0, nt)
    X, T = np.meshgrid(grid.xs, grid.ts, indexing="ij")
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        spec = soliton.SolitonSpec.from_c([k], [1.0])
        diff = np.max(np.abs(soliton.q_soliton(spec, X, T)
                             - soliton.one_soliton_reference(k, 1.0, X, T)))
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    return [
        _judged("soliton_profile.max_error", worst, "<", 1e-8, t0,
                "max |analytic q - sech^2 reference| over k in {0.5, 1, 2}"),
        _judged("soliton_profile.runtime_s", elapsed, "<", 2.0, t0),
    ]


# ---------------------------------------------------------------------------
# criterion 2: 3-soliton Cauchy determinant
# ---------------------------------------------------------------------------

def check_cauchy_determinant(level, rng):
    t0 = time.perf_counter()
    spec = soliton.SolitonSpec.from_c([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    vessel = soliton.build_soliton(spec)
    npts = 100 if level == "full" else 25
    xs, ts = rng.uniform(-3.0, 3.0, size=(npts, 2)).T
    ref = soliton.tau_cauchy_3(spec, xs, ts)
    # tau = det X of the vessel's own X (X0 = I) and det(D M D) of its scaled pair
    sign_x, logdet_x = np.linalg.slogdet(vessel.X(xs, ts))
    logabs, sign = core.log_tau(vessel, xs, ts)
    worst = max(np.max(np.abs(tv - ref) / np.abs(tv))
                for tv in (sign_x * np.exp(logdet_x), sign * np.exp(logabs)))
    elapsed = time.perf_counter() - t0
    return [
        _judged("cauchy_determinant.rel_error", worst, "<", 1e-10, t0,
                f"determinant vs closed form at {npts} random points of [-3,3]^2"),
        _judged("cauchy_determinant.runtime_s", elapsed, "<", 1.0, t0),
    ]


# ---------------------------------------------------------------------------
# criterion 3: Lyapunov + normalization identities per construction
# ---------------------------------------------------------------------------

def check_vessel_identities(level, rng):
    # name, vessel and the sample box's corners (x, t)
    cases = [
        ("soliton", _soliton_vessel([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]), [-2.0, -0.5], [2.0, 0.5]),
        ("discrete", _discrete_vessel([0.8, 1.25], [0.5, 0.5]), [-1.0, -0.3], [1.0, 0.3]),
        ("quadrature", _quadrature_vessel(1.2, 24, 0.75), [-1.0, -0.3], [1.0, 0.3]),
    ]
    npts = 50 if level == "full" else 15
    out = []
    for name, vessel, lo, hi in cases:
        t0 = time.perf_counter()
        xs, ts = rng.uniform(lo, hi, size=(npts, 2)).T
        scale = 1.0 + np.linalg.norm(vessel.X(xs, ts), axis=(-2, -1))
        out += [
            _judged(f"vessel_identities.lyapunov[{name}]",
                    core.lyapunov_residual(vessel, xs, ts).max(), "<", 1e-12, t0,
                    f"normalized Lyapunov residual at {npts} random points"),
            _judged(f"vessel_identities.normalization[{name}]",
                    (core.normalization_residual(vessel, xs, ts) / scale).max(), "<", 1e-12, t0),
        ]
    return out


# ---------------------------------------------------------------------------
# criterion 4: differential vessel conditions, residual + order, and the
# standard construction as an oracle for every entry of B and X
# ---------------------------------------------------------------------------

def _construction_error(vessel, x, t, h):
    """Max entry error of the RK4 tables of the standard construction from
    the vessel's own (A, B(x, t), X(x, t)), step h over [x, x + 0.5],
    against its plain B and X on that grid at time t."""
    grid = np.linspace(x, x + 0.5, round(0.5 / h) + 1)
    tables = core.integrate_standard_construction(vessel.A, *vessel.plain(x, t), x, grid, t)
    return max(np.abs(a - b).max() for a, b in zip(tables, vessel.plain(grid, t)))


def check_evolution_conditions(level, rng):
    cases = [
        ("soliton", _soliton_vessel([0.6, 0.9], [0.25, 0.25]), 0.25, 0.12),
        ("discrete", _discrete_vessel([0.7, 1.1], [0.6, 0.6]), 0.3, 0.15),
        ("quadrature", _quadrature_vessel(1.0, 16, 0.6), 0.3, 0.15),
    ]

    def one(case):
        name, vessel, x, t = case
        t0 = time.perf_counter()
        rep_h = core.evolution_residuals(vessel, x, t, h=1e-3)
        rep_h2 = core.evolution_residuals(vessel, x, t, h=5e-4)
        orders = [
            verify.convergence_order(a, b)
            for a, b in zip(
                (rep_h.r_DB, rep_h.r_DX, rep_h.r_DBt, rep_h.r_DXt),
                (rep_h2.r_DB, rep_h2.r_DX, rep_h2.r_DBt, rep_h2.r_DXt),
            )
        ]
        err_h, err_h2 = (_construction_error(vessel, x, t, h) for h in (0.05, 0.025))
        detail = (f"RK4 tables vs plain B, X on [{x}, {x + 0.5}] at t={t}: "
                  f"max error {err_h:.3e} at h=0.05, {err_h2:.3e} at h=0.025")
        return [
            _judged(f"evolution_conditions.residual[{name}]", rep_h.max_differential(),
                    "<", 1e-6, t0, f"h=1e-3 residuals {rep_h.as_dict()}"),
            _judged(f"evolution_conditions.order[{name}]", min(orders), ">", 1.9, t0,
                    f"orders per condition: {[round(o, 3) for o in orders]}"),
            _judged(f"evolution_conditions.construction[{name}]", err_h2, "<", 1e-8, t0, detail),
            _judged(f"evolution_conditions.construction_order[{name}]",
                    verify.convergence_order(err_h, err_h2), ">", 3.5, t0, detail),
        ]

    return [r for case in cases for r in one(case)]


# ---------------------------------------------------------------------------
# criterion 5: KdV residual of the 2- and 3-soliton fields
# ---------------------------------------------------------------------------

def check_kdv_residual(level, rng):
    t_start = time.perf_counter()
    if level == "full":
        base = verify.Grid2D(-8.0, 8.0, 1601, -1.0, 1.0, 201)  # hx = ht = 0.01
    else:
        base = verify.Grid2D(-4.0, 4.0, 401, -0.4, 0.4, 41)  # hx = ht = 0.02
    # order measured against the half-resolution grid: the absolute bound is
    # pinned at the base spacing, and on the coarser pair the h^4 truncation
    # still dominates the far-field cancellation noise amplified by 1/h^3.
    # Its points are every other base point (linspace gives them bit for
    # bit), so its q is q[::2, ::2] of the base q.
    coarse = verify.Grid2D(base.x_min, base.x_max, (base.nx + 1) // 2,
                           base.t_min, base.t_max, (base.nt + 1) // 2)
    specs = [
        ("soliton2", soliton.SolitonSpec.from_c([0.8, 1.3], [1.0, 1.0])),
        ("soliton3", soliton.SolitonSpec.from_c([0.7, 1.0, 1.4], [1.0, 1.0, 1.0])),
    ]
    out = []
    for name, spec in specs:
        t0 = time.perf_counter()
        q = soliton.q_soliton(spec, *np.meshgrid(base.xs, base.ts, indexing="ij"))
        res_h = np.abs(verify.kdv_residual(q[::2, ::2], coarse)).max()
        res_h2 = np.abs(verify.kdv_residual(q, base)).max()
        order = verify.convergence_order(res_h, res_h2)
        out.append(_judged(f"kdv_residual.max[{name}]", res_h2, "<", 1e-3, t0,
                           f"accuracy-4 stencils at hx=ht={base.hx:.3g}"))
        out.append(_judged(f"kdv_residual.order[{name}]", order, ">", 3.5, t0,
                           f"residual {res_h:.3e} -> {res_h2:.3e} under h -> h/2"))
    out.append(_judged("kdv_residual.runtime_s", time.perf_counter() - t_start, "<", 30.0,
                       t_start))
    return out


def verify_checks(vessel, grid, tolerance=1e-3):
    """verify.kdv_residual_max: the accuracy-4 KdV residual of the exact
    q = 2 beta' of one vessel on ``grid``, below ``tolerance``."""
    t0 = time.perf_counter()
    residual = np.abs(verify.kdv_residual(grid_fields(vessel, grid).q, grid)).max()
    return [_judged("verify.kdv_residual_max", residual, "<", tolerance, t0,
                    f"accuracy-4 stencils, hx={grid.hx:.4g} ht={grid.ht:.4g}")]


# ---------------------------------------------------------------------------
# criterion 6: transfer-function symmetry, x-evolution order, intertwining
# ---------------------------------------------------------------------------

def _sample_lambdas(rng, vessel, count):
    """``count`` lambdas, |lambda| log-uniform on [0.1, 10] at a uniform angle,
    off the spectrum by > 1e-3 together with -conj(lambda).  Each round draws
    as many candidates as are missing: the rng stream of one at a time.
    """
    lams = np.empty(0, dtype=complex)
    while lams.size < count:
        log_mag, ang = rng.uniform([-1.0, 0.0], [1.0, 2.0 * np.pi],
                                   size=(count - lams.size, 2)).T
        lam = 10.0 ** log_mag * np.exp(1j * ang)
        keep = ((np.abs(lam[:, None] - vessel.spectrum).min(axis=1) > 1e-3)
                & (np.abs(-lam.conj()[:, None] - vessel.spectrum).min(axis=1) > 1e-3))
        lams = np.concatenate([lams, lam[keep]])
    return lams


def transfer_checks(vessel, rng, nlam, suffix=""):
    """transfer.symmetry and transfer.ds_order of one vessel at (x, t) = (0.3, 0.1).

    The symmetry residual is the worst over ``nlam`` lambdas drawn from
    ``rng``, evaluated as one stack.  The x-evolution residual of S at
    lambda = 0.7 + 0.4i must converge at an order above 1.9 under
    h = 1e-3 -> 5e-4; a residual that is not positive has no order and
    raises NumericalConsistencyError.  ``suffix`` tags the check names.
    """
    t0 = time.perf_counter()
    x, t = 0.3, 0.1
    worst = transfer.symmetry_residual(vessel, _sample_lambdas(rng, vessel, nlam),
                                       core.evaluate(vessel, x, t)).max()
    r_h = transfer.ds_residual(vessel, 0.7 + 0.4j, x, t, h=1e-3)
    r_h2 = transfer.ds_residual(vessel, 0.7 + 0.4j, x, t, h=5e-4)
    try:
        order = verify.convergence_order(r_h, r_h2)
    except ValueError as exc:
        raise NumericalConsistencyError(
            f"transfer.ds_order{suffix}: {exc} (r_h={r_h:.3e}, r_h/2={r_h2:.3e})"
        ) from exc
    return [
        _judged(f"transfer.symmetry{suffix}", worst, "<", 1e-10, t0,
                f"{nlam} seeded lambdas, |lambda| in [0.1, 10], off-spectrum by > 1e-3"),
        _judged(f"transfer.ds_order{suffix}", order, ">", 1.9, t0),
    ]


def check_transfer_function(level, rng):
    cases = [
        ("soliton1", _soliton_vessel([1.2], [1.0])),
        ("soliton2", _soliton_vessel([0.8, 1.3], [1.0, 1.0])),
        ("discrete", _discrete_vessel([0.7, 1.1], [0.6, 0.6])),
        ("quadrature", _quadrature_vessel(1.0, 16, 0.6)),
    ]
    nlam = 100 if level == "full" else 20
    grid = 0.1 + 1e-3 * np.arange(-10, 11)
    out = []
    for name, vessel in cases:
        t0 = time.perf_counter()
        out += transfer_checks(vessel, rng, nlam, f"[{name}]")
        inter = transfer.intertwining_residual(vessel, -1j, grid, 0.05)
        out.append(_judged(f"transfer.intertwining[{name}]", inter, "<", 1e-5, t0,
                           "lambda = -i, centered grid h = 1e-3"))
    return out


# ---------------------------------------------------------------------------
# criterion 7: Gelfand-Levitan kernel identity
# ---------------------------------------------------------------------------

def check_gelfand_levitan(level, rng):
    cases = [
        ("soliton1", _soliton_vessel([1.0], [1.0])),
        ("soliton2", _soliton_vessel([0.7, 1.1], [0.5, 0.5])),
    ]
    out = []
    for name, vessel in cases:
        t0 = time.perf_counter()
        r201 = transfer.gl_residual(vessel, 0.0, 1.5, 0.7, quadrature_nodes=201)
        r401 = transfer.gl_residual(vessel, 0.0, 1.5, 0.7, quadrature_nodes=401)
        out.append(_judged(f"gelfand_levitan.residual[{name}]", r201, "<", 1e-8, t0,
                           "201 Simpson nodes, x0=0, (x, y) = (1.5, 0.7)"))
        out.append(_judged(f"gelfand_levitan.node_doubling[{name}]",
                           r201 / r401 if r401 > 0 else np.inf, ">", 12.0, t0,
                           f"residual {r201:.3e} -> {r401:.3e}"))
    return out


def scatter_checks(vessel, x0=0.0, x=1.5, y=0.7, nodes=201):
    """scatter.gl_residual (the kernel identity at (x, y) from x0 below 1e-8)
    and scatter.sign_sigma (sigma = +1 at (x + y)/2) of one vessel."""
    t0 = time.perf_counter()
    omega, kval = transfer.gl_kernels(vessel, x0, x, y)
    res = transfer.gl_residual(vessel, x0, x, y, quadrature_nodes=nodes)
    rep = transfer.q_from_K_diag(vessel, 0.5 * (x + y))
    return [
        _judged("scatter.gl_residual", res, "<", 1e-8, t0,
                f"Omega={omega:.6e}, K={kval:.6e}, {nodes} Simpson nodes"),
        _judged("scatter.sign_sigma", rep.sigma, "==", 1.0, t0, rep.describe()),
    ]


# ---------------------------------------------------------------------------
# criterion 8: fixed-vector identity (fails for every truncation)
# ---------------------------------------------------------------------------

_FIXED_VECTOR_NOTE = (
    "X(x,0) - I is the positive-semidefinite Gram matrix of w_n(y) = "
    "c_n sin(k_n y)/k_n over [0, x], so X v = v + Gram v != v for the seed "
    "v = first column of B; already the 1x1 truncation refutes the identity. "
    "The residual scales like O(|b|^2 x), not roundoff."
)


def check_fixed_vector(level, rng):
    npts = 50 if level == "full" else 15
    out = []
    t0 = time.perf_counter()
    disc = _discrete_vessel(0.4 + 0.22 * np.arange(8), np.full(8, 0.5))
    worst = spectral.fixed_vector_residual(disc, rng.uniform(-5.0, 5.0, size=npts)).max()
    out.append(_judged("fixed_vector.discrete", worst, "<", 1e-10, t0, _FIXED_VECTOR_NOTE))
    t0 = time.perf_counter()
    quad = _quadrature_vessel(2.0, 64, 1.0)
    worst = spectral.fixed_vector_residual(quad, rng.uniform(-5.0, 5.0, size=npts)).max()
    out.append(_judged("fixed_vector.quadrature", worst, "<", 1e-8, t0, _FIXED_VECTOR_NOTE))
    return out


# ---------------------------------------------------------------------------
# criterion 9: moment recursion
# ---------------------------------------------------------------------------

def check_moment_recursion(level, rng):
    t0 = time.perf_counter()
    vessel = _soliton_vessel([1.0], [1.0])
    npts = 10 if level == "full" else 4
    xs, ts = rng.uniform([-1.0, -0.5], [1.0, 0.5], size=(npts, 2)).T
    worst = max(transfer.moment_recursion_residual(vessel, xs, ts, n, h=1e-4).max()
                for n in range(4))
    return [_judged("moment_recursion.max", worst, "<", 1e-6, t0,
                    f"levels n = 0..3 at {npts} random points, FD step 1e-4")]


# ---------------------------------------------------------------------------
# criterion 10: coefficient-evolution system on the (k0=1, M=2) lattice
# ---------------------------------------------------------------------------

_CONSERVATION_NOTE = (
    "sum_N dp_N/k_N^2 = 0 requires the additively closed (infinite) lattice; "
    "on {+-1, +-2} the flow drives p_1 != p_2 and the residual grows like "
    "-3 cos(12 t) p_1 (p_1 - p_2), reaching O(1) along the flow to t = 0.5. "
    "Zero only at t = 0 for constant p."
)


def _dbnt_brute(lattice, p, t):
    # independent enumeration; pair matching on the integer labels, k values
    # recomputed from k0 so the arithmetic mirrors the implementation exactly
    labels = [m for m in range(-lattice.M, lattice.M + 1) if m != 0]
    kval = {m: lattice.k0 * float(m) for m in labels}
    pos = {m: i for i, m in enumerate(labels)}
    out = np.empty(len(labels))
    for j, mN in enumerate(labels):
        kN = kval[mN]
        acc = 0.0
        for ma in labels:
            for mb in labels:
                if ma + mb == mN:
                    ka, kb = kval[ma], kval[mb]
                    acc += p[pos[ma]] * p[pos[mb]] / (ka * kb) * np.cos(6.0 * ka * kb * kN * t)
        out[j] = -1.5 * kN**2 * acc
    return out


def check_coefficient_evolution(level, rng):
    lat = evolution.make_lattice(1.0, 2)
    out = []

    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(5):
        if trial == 0:
            p = np.ones(lat.size)
        else:
            half = rng.uniform(0.2, 1.5, size=lat.size // 2)
            p = np.concatenate([half[::-1], half])  # symmetric by construction
        tv = rng.uniform(0.0, 0.6) if trial else 0.0
        worst = max(worst, float(np.max(np.abs(
            evolution.dbnt_rhs(lat, p, tv) - _dbnt_brute(lat, p, tv)))))
    out.append(_judged("coefficient_evolution.rhs_vs_bruteforce", worst, "==", 0.0, t0,
                       "bit-exact match of the ordered-pair enumeration"))

    def trajectory(steps):
        return evolution.integrate_b(lat, np.ones(lat.size), np.linspace(0.0, 0.5, steps + 1),
                                     conservation_tol=np.inf)

    steps = 500 if level == "full" else 100
    t0 = time.perf_counter()
    traj = trajectory(steps)
    out.append(_judged("coefficient_evolution.conservation", float(traj.conservation.max()),
                       "<", 1e-12, t0, _CONSERVATION_NOTE))

    t0 = time.perf_counter()
    mirror = lat.mirror_permutation()
    sym = float(np.max(np.abs(traj.p - traj.p[:, mirror])))
    out.append(_judged("coefficient_evolution.symmetry", sym, "<", 1e-12, t0,
                       "p_N = p_-N along the whole trajectory"))

    t0 = time.perf_counter()
    # each step count runs once: at the full level the finest is traj
    ends = [(traj if n == steps else trajectory(n)).p[-1] for n in (125, 250, 500)]
    d1 = float(np.max(np.abs(ends[0] - ends[1])))
    d2 = float(np.max(np.abs(ends[1] - ends[2])))
    order = verify.convergence_order(d1, d2)
    out.append(_judged("coefficient_evolution.integrator_order", order, "within 0.5 of", 4.0,
                       t0, "successive-refinement order"))
    return out


# ---------------------------------------------------------------------------
# criterion 11: periodicity of the trigonometric vessel's beta
# ---------------------------------------------------------------------------

_PERIODICITY_NOTE = (
    "the Gram diagonal carries the secular term (x - 3 k_n^2 t)/(2 k_n^2), so "
    "X(x + T, t) = X(x, t) + diag(T |b_n|^2 / (2 k_n^2)) exactly; beta inherits "
    "an O(|b|^2) shift. Exact periodicity holds only for the idealized "
    "infinite-dimensional object, not for any truncation."
)


def check_periodicity(level, rng):
    t0 = time.perf_counter()
    T = 2.0 * np.pi
    T_t = T**3 / (2.0 * np.pi) ** 2
    spec = spectral.DiscreteSpectrum(
        k=np.array([1.0, 2.0, 3.0, 4.0]),
        b=np.array([0.2, 0.15, 0.12, 0.1], dtype=complex),
        flavor="periodic",
        period=T,
    )
    vessel = spectral.build_discrete_vessel(spec)
    npts = 20 if level == "full" else 8
    xs, ts = rng.uniform([0.0, 0.0], [T, 0.3], size=(npts, 2)).T
    beta = core.evaluate(vessel, np.stack([xs, xs + T, xs], axis=-1),
                         np.stack([ts, ts, ts + T_t], axis=-1)).beta
    worst_x = np.max(np.abs(beta[:, 1] - beta[:, 0]))
    worst_t = np.max(np.abs(beta[:, 2] - beta[:, 0]))
    return [
        _judged("periodicity.x_shift", worst_x, "<", 1e-10, t0, _PERIODICITY_NOTE),
        _judged("periodicity.t_shift", worst_t, "<", 1e-10, t0, _PERIODICITY_NOTE),
    ]


# ---------------------------------------------------------------------------
# criterion 12: kernel-diagonal potential sign resolution
# ---------------------------------------------------------------------------

def check_kernel_diag_sign(level, rng):
    t0 = time.perf_counter()
    sol_spec = soliton.SolitonSpec.from_c([1.2], [1.0])
    cases = [
        ("soliton", soliton.build_soliton(sol_spec), 0.4,
         float(soliton.q_soliton(sol_spec, 0.4, 0.0))),
        ("discrete", _discrete_vessel([0.7, 1.1], [0.6, 0.6]), 0.3, None),
        ("quadrature", _quadrature_vessel(1.0, 16, 0.6), 0.3, None),
    ]
    worst = 0.0
    sigmas = []
    details = []
    reports = []
    for name, vessel, x, ref in cases:
        rep = transfer.q_from_K_diag(vessel, x, h=1e-3, reference=ref)
        reports.append(rep)
        sigmas.append(rep.sigma)
        worst = max(worst, abs(rep.value - rep.reference))
        details.append(f"{name}: sigma={rep.sigma:+d}")
    report = "; ".join(details) + ". " + reports[0].describe()
    return [
        _judged("kernel_diag_sign.match_error", worst, "<", 1e-4, t0,
                "matched candidate vs analytic reference, O(h^2) bound at h = 1e-3"),
        _judged("kernel_diag_sign.sigma_consistent", min(sigmas), "==", 1.0, t0, report),
    ]


CHECKS = {
    "soliton_profile": check_soliton_profile,
    "cauchy_determinant": check_cauchy_determinant,
    "vessel_identities": check_vessel_identities,
    "evolution_conditions": check_evolution_conditions,
    "kdv_residual": check_kdv_residual,
    "transfer_function": check_transfer_function,
    "gelfand_levitan": check_gelfand_levitan,
    "fixed_vector": check_fixed_vector,
    "moment_recursion": check_moment_recursion,
    "coefficient_evolution": check_coefficient_evolution,
    "periodicity": check_periodicity,
    "kernel_diag_sign": check_kernel_diag_sign,
}

# Checks that measure idealized infinite-dimensional identities no finite
# truncation satisfies; they run at their stated tolerance and fail.
EXPECTED_FAILURES = (
    "fixed_vector.discrete",
    "fixed_vector.quadrature",
    "coefficient_evolution.conservation",
    "periodicity.x_shift",
    "periodicity.t_shift",
)

# Families whose every sub-check is a positive upper bound on an error
# (value < tolerance); only these take a tolerance override.
ERROR_BOUND_FAMILIES = ("vessel_identities", "fixed_vector", "moment_recursion", "periodicity")


def run_suite(level="full", seed=20240601, checks=None):
    """Run the named checks; returns (header dict, list of CheckResult)."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    names = list(CHECKS) if checks is None else list(checks)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    t0 = time.perf_counter()
    results = []
    for name in names:
        # crc32 keeps the per-check substream stable across processes
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        results.extend(CHECKS[name](level, rng))
    return report_header(level, seed, names, (time.perf_counter() - t0) * 1e3, results), results


def report_header(level, seed, checks, runtime_ms, results):
    """The report header: run settings plus the pass/fail counts of results."""
    return {
        "level": level,
        "seed": seed,
        "checks": checks,
        "runtime_ms": runtime_ms,
        "n_pass": sum(r.passed for r in results),
        "n_fail": sum(not r.passed for r in results),
    }


def format_report_lines(header, results):
    lines = [
        f"verification suite: level={header['level']} seed={header['seed']} "
        f"({header['n_pass']} pass / {header['n_fail']} fail, "
        f"{header['runtime_ms']:.0f} ms)"
    ]
    lines.extend(r.line() for r in results)
    return lines


def report_as_dict(header, results):
    return {
        "header": header,
        "checks": [
            {
                "check": r.check,
                "value": float(r.value),
                "tolerance": float(r.tolerance),
                "pass": bool(r.passed),
                "rule": r.rule,
                "runtime_ms": float(r.runtime_ms),
                "detail": r.detail,
            }
            for r in results
        ],
    }
