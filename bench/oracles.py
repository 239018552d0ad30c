"""Independent checks of each operation's output.

The field oracle rebuilds beta, beta' and tau at sample points from the
vessel's defining operators (the public ``vessel.B`` / ``vessel.X``) with
one dense solve and ``slogdet``; it never calls the program's evaluators.
Far out on a soliton vessel, where X = I + D G D overflows, it solves the
scaled system built from the vessel's public generators and couplings.
The lattice oracle re-derives the right-hand side by its own ordered-pair
enumeration.  The suite oracle compares the set of failing sub-checks with
``suite.EXPECTED_FAILURES``.  Each function returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np

FIELD_HEADER = "x,t,tau,beta,q"
EPS = np.finfo(float).eps
# Relative agreement floor; on top of it each comparison allows the
# forward error of a backward-stable dense solve, ~ cond(X) * eps.
REL_FLOOR = 1e-9
COND_FACTOR = 64.0
# Past this phase a soliton's X has cond ~ e^{2 phi} (and e^{2 phi}
# overflows near phi = 354), so the oracle switches to the scaled system.
SCALED_PHASE = 20.0
# log of the largest float: a tau beyond it can only be written as inf
LOG_MAX = math.log(np.finfo(float).max)


def _grid_axes(g):
    return (np.linspace(g["x_min"], g["x_max"], g["nx"]),
            np.linspace(g["t_min"], g["t_max"], g["nt"]))


def _parse_rows(lines, width):
    rows = [ln.split(",") for ln in lines]
    if any(len(r) != width for r in rows):
        raise ValueError(f"rows must have {width} fields")
    return np.array(rows, dtype=float)


def _scaled_soliton(vessel, x, t):
    """(B* X^-1 B, log det X, sign, cond) of a soliton vessel without forming X.

    X = I + E G E and B = E C with E = diag(e^phi), phi_j = k_j x + k_j^3 t,
    C = [b, i k b] and G_ij = b_i conj(b_j) / (k_i + k_j).  Splitting
    E = S F with S = diag(e^max(phi, 0)) gives X = S (S^-2 + F G F) S, so
    B* X^-1 B = C* F (S^-2 + F G F)^-1 F C and
    log det X = 2 sum max(phi, 0) + log det(S^-2 + F G F); every entry is
    at most max |G|.
    """
    k = np.asarray(vessel.metadata["generators"], dtype=float)
    b = np.asarray(vessel.metadata["couplings"], dtype=complex)
    phi = k * x + k**3 * t
    s = np.maximum(phi, 0.0)
    f = np.exp(phi - s)
    G = np.outer(b, b.conj()) / (k[:, None] + k[None, :])
    Y = np.diag(np.exp(-2.0 * s)) + f[:, None] * G * f[None, :]
    FC = f[:, None] * np.column_stack([b, 1j * k * b])
    M = FC.conj().T @ np.linalg.solve(Y, FC)
    sign, logdet = np.linalg.slogdet(Y)
    return M, 2.0 * float(s.sum()) + logdet, sign, float(np.linalg.cond(Y))


def dense_state(vessel, x, t):
    """(beta, beta', sign tau, log |tau|, cond) from one dense solve.

    beta = -(B* X^-1 B)_11 and, by the linkage condition,
    beta' = beta^2 + i ((B* X^-1 B)_12 - (B* X^-1 B)_21); tau = det(X0^-1 X).
    B and X are the vessel's own, except on a soliton vessel past
    SCALED_PHASE (see ``_scaled_soliton``).
    """
    meta = vessel.metadata or {}
    if (vessel.kind == "soliton"
            and float(np.max(meta["generators"] * x + meta["generators"] ** 3 * t))
            > SCALED_PHASE):
        M, logdet, sign, cond = _scaled_soliton(vessel, x, t)
    else:
        B = np.asarray(vessel.B(x, t), dtype=complex)
        X = np.asarray(vessel.X(x, t), dtype=complex)
        X = 0.5 * (X + X.conj().T)
        M = B.conj().T @ np.linalg.solve(X, B)
        sign, logdet = np.linalg.slogdet(X)
        cond = float(np.linalg.cond(X))
    beta = -M[0, 0].real
    beta_p = (beta**2 + 1j * (M[0, 1] - M[1, 0])).real
    sign0, logdet0 = np.linalg.slogdet(vessel.X0)
    return beta, beta_p, float((sign / sign0).real), logdet - logdet0, cond


def _close(got, want, cond, scale):
    return abs(got - want) <= (REL_FLOOR + COND_FACTOR * EPS * cond) * scale


def sample_points(op):
    """The seeded (ix, it) grid points the field oracle checks densely."""
    g = op["config"]["grid"]
    rng = np.random.default_rng(op["oracle_seed"])
    return [(int(rng.integers(g["nx"])), int(rng.integers(g["nt"])))
            for _ in range(op["oracle_samples"])]


def check_field(op, text, vessel, one_soliton_reference):
    """CSV dump x,t,tau,beta,q against the dense oracle.

    Every row must sit on the configured grid with finite beta, and finite
    tau unless the oracle's tau is beyond the float range, where it must be
    +inf.  At the sample points tau and beta must match the dense values; q must
    match 2 beta' (solitons; also the sech^2 closed form when n = 1) or,
    for the trigonometric vessels, either 2 beta' or the centered
    difference of the oracle's own beta (q may be nan on the x boundary).
    """
    cfg = op["config"]
    g, vcfg = cfg["grid"], cfg["vessel"]
    if not text.endswith("\n"):
        return "output does not end with a newline"
    lines = text[:-1].split("\n")
    if lines[0] != FIELD_HEADER:
        return f"header {lines[0]!r} != {FIELD_HEADER!r}"
    nx, nt = g["nx"], g["nt"]
    if len(lines) - 1 != nx * nt:
        return f"{len(lines) - 1} rows, expected {nx * nt}"
    try:
        data = _parse_rows(lines[1:], 5).reshape(nx, nt, 5)
    except ValueError as exc:
        return f"unparsable row: {exc}"
    xs, ts = _grid_axes(g)
    if not (np.allclose(data[:, :, 0], xs[:, None], rtol=1e-14, atol=1e-13)
            and np.allclose(data[:, :, 1], ts[None, :], rtol=1e-14, atol=1e-13)):
        return "x,t columns are not the configured grid"
    if not np.all(np.isfinite(data[:, :, 3])):
        return "non-finite beta"
    for i, j in zip(*np.nonzero(~np.isfinite(data[:, :, 2]))):
        sign, logtau = dense_state(vessel, float(xs[i]), float(ts[j]))[2:4]
        if not (data[i, j, 2] == math.inf and sign > 0 and logtau > LOG_MAX):
            return f"tau {data[i, j, 2]!r} at x={float(xs[i])!r}, t={float(ts[j])!r}"
    if not np.all(np.isfinite(data[1:-1, :, 4])):
        return "non-finite q in the interior"
    soliton = vcfg["type"] == "soliton"
    hx = (g["x_max"] - g["x_min"]) / (nx - 1)
    for i, j in sample_points(op):
        x, t = float(xs[i]), float(ts[j])
        tau, beta, q = data[i, j, 2:5]
        beta_o, beta_p, sign, logtau, cond = dense_state(vessel, x, t)
        where = f"at x={x!r}, t={t!r}"
        if logtau <= LOG_MAX:
            tau_o = sign * math.exp(logtau)
            if not _close(tau, tau_o, vessel.n * cond, abs(tau_o)):
                return f"tau {tau!r} != oracle {tau_o!r} {where}"
        elif tau != math.inf:
            return f"tau {tau!r} != oracle e^{logtau!r} {where}"
        if not _close(beta, beta_o, cond, 1.0 + abs(beta_o)):
            return f"beta {beta!r} != oracle {beta_o!r} {where}"
        q_scale = 1.0 + abs(beta_p) + beta_o**2
        if soliton:
            if not _close(q, 2.0 * beta_p, cond, 2.0 * q_scale):
                return f"q {q!r} != oracle 2 beta' {2.0 * beta_p!r} {where}"
            if len(vcfg["k"]) == 1:
                k, b = vcfg["k"][0], vcfg["b_abs"][0]
                ref = float(one_soliton_reference(k, b * b / (2.0 * k), x, t))
                if abs(q - ref) > REL_FLOOR * (1.0 + k * k):
                    return f"q {q!r} != sech^2 reference {ref!r} {where}"
            continue
        if np.isnan(q) and i in (0, nx - 1):
            continue
        if _close(q, 2.0 * beta_p, cond, 2.0 * q_scale):
            continue
        if 0 < i < nx - 1:
            bm = dense_state(vessel, float(xs[i - 1]), t)[0]
            bp = dense_state(vessel, float(xs[i + 1]), t)[0]
            if _close(q, (bp - bm) / hx, cond, 2.0 * (1.0 + abs(beta_o)) / hx):
                continue
        return f"q {q!r} matches neither 2 beta' {2.0 * beta_p!r} nor the stencil {where}"
    return None


def lattice_labels(M):
    return [m for m in range(-M, M + 1) if m != 0]


def pair_rhs(k0, M, p, t):
    """dp_N/dt by direct ordered-pair enumeration over integer labels.

    For each output label N the partners run over a in -M..M in increasing
    order with b = N - a, which is the lexicographic pair order.
    """
    labels = lattice_labels(M)
    pos = {m: i for i, m in enumerate(labels)}
    k = {m: k0 * float(m) for m in labels}
    out = np.empty(len(labels))
    for j, mN in enumerate(labels):
        acc = 0.0
        for ma in labels:
            mb = mN - ma
            if mb == 0 or abs(mb) > M:
                continue
            acc += (p[pos[ma]] * p[pos[mb]] / (k[ma] * k[mb])
                    * math.cos(6.0 * k[ma] * k[mb] * k[mN] * t))
        out[j] = -1.5 * k[mN] ** 2 * acc
    return out


def check_evolve(op, text, program_rhs=None):
    """CSV trajectory t,p[-M..M],conservation against the pair enumeration.

    Checks the time grid, p(0) = p0, the first RK4 step, p_N = p_-N on
    every row, the last row's conservation value, and (when given the
    program's ``program_rhs(p, t)``) the last right-hand side.
    """
    evo = op["config"]["evolution"]
    M, k0, steps = evo["M"], evo["k0"], evo["steps"]
    labels = lattice_labels(M)
    header = "t," + ",".join(f"p[{m}]" for m in labels) + ",conservation"
    if not text.endswith("\n"):
        return "output does not end with a newline"
    lines = text[:-1].split("\n")
    if lines[0] != header:
        return "header does not list the lattice labels"
    if len(lines) - 1 != steps + 1:
        return f"{len(lines) - 1} rows, expected {steps + 1}"
    try:
        data = _parse_rows(lines[1:], len(labels) + 2)
    except ValueError as exc:
        return f"unparsable row: {exc}"
    times, p, cons = data[:, 0], data[:, 1:-1], data[:, -1]
    t_grid = np.linspace(0.0, evo["t_end"], steps + 1)
    if not np.allclose(times, t_grid, rtol=1e-14, atol=1e-16):
        return "t column is not the configured time grid"
    p0 = np.asarray(evo["p0"], dtype=float)
    if not np.array_equal(p[0], p0):
        return "first row is not p0"
    scale = float(np.max(np.abs(p)))
    if not np.all(np.isfinite(p)) or scale == 0.0:
        return "trajectory is not finite and nonzero"
    asym = float(np.max(np.abs(p - p[:, ::-1])))
    if asym > 1e-12 * max(1.0, scale):
        return f"p_N != p_-N by {asym:.3e}"
    h = t_grid[1] - t_grid[0]
    k1 = pair_rhs(k0, M, p0, 0.0)
    k2 = pair_rhs(k0, M, p0 + 0.5 * h * k1, 0.5 * h)
    k3 = pair_rhs(k0, M, p0 + 0.5 * h * k2, 0.5 * h)
    k4 = pair_rhs(k0, M, p0 + h * k3, h)
    p1 = p0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if np.max(np.abs(p[1] - p1)) > 1e-12 * scale:
        return "first RK4 step differs from the pair enumeration"
    rhs = pair_rhs(k0, M, p[-1], times[-1])
    kk = np.array([k0 * float(m) for m in labels]) ** 2
    terms = rhs / kk
    if abs(cons[-1] - abs(float(np.sum(terms)))) > 1e-12 * (1.0 + float(np.sum(np.abs(terms)))):
        return f"last conservation value {cons[-1]!r} != {abs(float(np.sum(terms)))!r}"
    if program_rhs is not None:
        got = np.asarray(program_rhs(p[-1], times[-1]))
        if np.max(np.abs(got - rhs)) > 1e-12 * (1.0 + float(np.max(np.abs(rhs)))):
            return "program right-hand side differs from the pair enumeration"
    return None


def check_suite(header, results, checks, expected_failures):
    """Failing sub-checks must be exactly ``expected_failures``; every check ran."""
    failing = sorted(r.check for r in results if not r.passed)
    if failing != sorted(expected_failures):
        return f"failing {failing} != expected {sorted(expected_failures)}"
    missing = sorted(set(checks) - set(header["checks"]))
    if missing:
        return f"checks not run: {missing}"
    if header["n_fail"] != len(failing) or header["n_pass"] + header["n_fail"] != len(results):
        return "header counts disagree with the results"
    return None
