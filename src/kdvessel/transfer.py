"""Transfer function S(lambda, x, t), Markov moments and reconstruction kernels.

For a vessel the 2x2 transfer function

    S(lambda, x, t) = I - B* X^-1 (lambda I - A)^-1 B sigma1

is analytic off the spectrum of A with S(inf) = I and satisfies

    symmetry:      S*(-conj(lambda)) sigma1 S(lambda) = sigma1
    x-evolution:   dS/dx = sigma1^-1 (lambda sigma2 + gamma_*) S
                           - S sigma1^-1 (lambda sigma2 + gamma)
    intertwining:  y = S u maps solutions of -u1'' = -i lambda u1 to
                   solutions of -y1'' + 2 beta' y1 = -i lambda y1.

The 1/lambda expansion at infinity S = I - sum_n lambda^{-n-1} H_n has
Markov moments H_n = B* X^-1 A^n B sigma1, linked level to level by four
scalar recursion relations in beta (checked here by finite differences).

The reconstruction kernels at t = 0 are

    Omega(x, y) = [1 0] B*(x) X^-1(x0) B(y) [1 0]^T
    K(x, y)     = -[1 0] B*(x) X^-1(x)  B(y) [1 0]^T

with K(x, x) = beta(x) and K + Omega + int_x0^x K(x, s) Omega(s, y) ds = 0.
The potential recovered from the kernel diagonal is q = +2 d/dx K(x, x)
(the -2 convention printed in classical treatments is inconsistent with
K(x, x) = beta and q = 2 beta' under this kernel normalization; the sign
is resolved empirically and reported).

Every routine evaluates the state at all of its points (stencils and
kernel points included) in one stacked :func:`core.evaluate` call on the
pair (D^-1 B, M), X = D M D.  As D commutes with the diagonal A, S and the
moments read the pair unchanged; the kernels mix two points and take
ratios of their log d.  S, the symmetry residual and the moments take a
state, and only that, as their points; S and the symmetry residual also
take an array of lambda, with one batched solve of (lambda I - A) against
B for every lambda and point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import GAMMA, SIGMA1, SIGMA2
from .exceptions import EvaluationError, InvalidSpecError, NumericalConsistencyError, PoleError

__all__ = [
    "eval_S",
    "symmetry_residual",
    "ds_residual",
    "intertwining_residual",
    "moments",
    "moment_recursion_residual",
    "gl_kernels",
    "gl_residual",
    "QFromKReport",
    "q_from_K_diag",
]


# lambda closer than this to the spectrum of A is a pole hit
_POLE_TOL = 1e-10


def _resolvent_solve(vessel: core.FiniteVessel, lam: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(lambda I - A)^-1 rhs for each lambda of a 1-D array (m,) and rhs P + (n, 2).

    The result is (m,) + P + (n, 2).  rhs is broadcast to it explicitly, so
    the solve reads it as matrices under every numpy version.  Raises
    PoleError naming the first lambda within _POLE_TOL of the spectrum.
    """
    dists = np.abs(lam[:, None] - vessel.spectrum)
    hits = np.flatnonzero(dists.min(axis=1) <= _POLE_TOL)
    if hits.size:
        i = hits[0]
        j = dists[i].argmin()
        raise PoleError(complex(lam[i]), complex(vessel.spectrum[j]), float(dists[i, j]))
    M = lam[:, None, None] * np.eye(vessel.n) - vessel.A
    M = M.reshape(lam.shape + (1,) * (rhs.ndim - 2) + M.shape[1:])
    return np.linalg.solve(M, np.broadcast_to(rhs, lam.shape + rhs.shape))


def eval_S(vessel: core.FiniteVessel, lam, state: core.EvaluatedState) -> np.ndarray:
    """S(lambda, x, t) = I - Y* (lambda I - A)^-1 B sigma1 through a linear
    solve (no explicit resolvent), with B = D^-1 B and Y from the state.

    ``state`` is ``core.evaluate(vessel, x, t)`` at points of shape P
    (P = () for one point) and ``lam`` a scalar or an array of any shape;
    the result has shape lam.shape + P + (2, 2).
    """
    lam = np.asarray(lam, dtype=complex)
    R = _resolvent_solve(vessel, lam.ravel(), state.B)
    M = state.Y.swapaxes(-1, -2).conj() @ R
    return (np.eye(2) - M @ SIGMA1).reshape(lam.shape + M.shape[1:])


def symmetry_residual(vessel: core.FiniteVessel, lam, state: core.EvaluatedState):
    """Frobenius norm of S*(-conj(lambda)) sigma1 S(lambda) - sigma1.

    A float for scalar ``lam`` at one point; an array of shape
    lam.shape + P otherwise, for a state at points of shape P as in
    :func:`eval_S`.
    """
    lam = np.asarray(lam, dtype=complex)
    S_lam = eval_S(vessel, lam, state)
    S_ref = eval_S(vessel, -lam.conj(), state)
    S_ref_adj = np.swapaxes(S_ref, -1, -2).conj()
    res = np.linalg.norm(S_ref_adj @ SIGMA1 @ S_lam - SIGMA1, axis=(-2, -1))
    return float(res) if res.ndim == 0 else res


def ds_residual(
    vessel: core.FiniteVessel, lam: complex, x: float, t: float, h: float = 1e-3
) -> float:
    """Centered-difference residual of the x-evolution of S."""
    core._check_step(h)
    xs = np.array([x, x + h, x - h])
    state = core.evaluate(vessel, xs, t)
    S0, Sp, Sm = eval_S(vessel, lam, state)
    dS = (Sp - Sm) / (2.0 * h)
    rhs = SIGMA1 @ (lam * SIGMA2 + state.gamma_star[0]) @ S0 - S0 @ SIGMA1 @ (
        lam * SIGMA2 + GAMMA
    )
    return float(np.linalg.norm(dS - rhs))


def intertwining_residual(
    vessel: core.FiniteVessel, lam: complex, x_grid, t: float
) -> float:
    """Max interior residual of the output equation for y = S u.

    The input solution is u1 = e^{omega x} with omega = sqrt(i lambda)
    (principal branch; either root solves the input equation) and
    u2 = -i u1'.  y1'' and beta' are centered differences on the grid, and
    the residual is |-y1'' + 2 beta' y1 + i lambda y1|.
    """
    xs = np.asarray(x_grid, dtype=float)
    if xs.size < 5:
        raise ValueError("need at least 5 grid points for the interior stencil")
    hs = np.diff(xs)
    if np.any(hs <= 0) or abs(hs.max() - hs.min()) > 1e-12 * hs.max():
        raise ValueError("x_grid must be uniform and increasing")
    h = float(hs[0])
    omega = np.exp(0.5 * np.log(1j * lam))
    state = core.evaluate(vessel, xs, t)
    e = np.exp(omega * xs)
    u = np.stack([e, -1j * omega * e], axis=-1)
    y1 = (eval_S(vessel, lam, state) @ u[..., None])[:, 0, 0]
    beta = state.beta
    y1pp = (y1[2:] - 2.0 * y1[1:-1] + y1[:-2]) / h**2
    beta_p = (beta[2:] - beta[:-2]) / (2.0 * h)
    res = np.abs(-y1pp + 2.0 * beta_p * y1[1:-1] + 1j * lam * y1[1:-1])
    return float(res.max())


def moments(vessel: core.FiniteVessel, state: core.EvaluatedState, nmax: int) -> np.ndarray:
    """Markov moments H_0..H_nmax, H_n = B* X^-1 A^n B sigma1.

    Shape (nmax+1,) + P + (2, 2) for a state at points of shape P (P = ()
    for one point), read as Y* A^n B from the state's pair; A^n B is built
    by repeated application of A to the columns of B.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    left = state.Y.swapaxes(-1, -2).conj()
    out = np.empty((nmax + 1,) + left.shape[:-1] + (2,), dtype=complex)
    P = state.B
    for n in range(nmax + 1):
        out[n] = (left @ P) @ SIGMA1
        P = vessel.A @ P
    return out


def moment_recursion_residual(
    vessel: core.FiniteVessel, x, t, n: int, h: float = 1e-4
):
    """Max residual of the four moment recursion relations at level n.

    With H = H_n, G = H_{n+1}, beta and beta' from the linkage:

        r1 = |G12 - (i H21 - dx H11 + beta H11)|
        r2 = |(G11 - G22) - i (dx G12 - beta G12)|
        r3 = |dx(G11 + G22) + i (beta' - beta^2) G12 - beta (G11 - G22)|
        r4 = |2i dx G21 - (dxx G11 - 2 beta dx G11)|

    x-derivatives are centered differences of step ``h``.  Broadcasts over
    points x, t: a float for one point, else an array.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    core._check_step(h)
    x = np.asarray(x, dtype=float)
    xs, ts = np.stack([x, x + h, x - h], axis=-1), np.asarray(t, dtype=float)[..., None]
    state = core.evaluate(vessel, xs, ts)
    H0, Hp, Hm = np.moveaxis(moments(vessel, state, n + 1), -3, 0)
    dH = (Hp - Hm) / (2.0 * h)
    d2H = (Hp - 2.0 * H0 + Hm) / h**2
    H, G = H0[n], H0[n + 1]
    dHn, dG = dH[n], dH[n + 1]
    beta = state.beta[..., 0]
    beta_p = state.beta_prime[..., 0]
    r1 = abs(G[..., 0, 1] - (1j * H[..., 1, 0] - dHn[..., 0, 0] + beta * H[..., 0, 0]))
    r2 = abs((G[..., 0, 0] - G[..., 1, 1]) - 1j * (dG[..., 0, 1] - beta * G[..., 0, 1]))
    r3 = abs(
        dG[..., 0, 0] + dG[..., 1, 1] + 1j * (beta_p - beta**2) * G[..., 0, 1]
        - beta * (G[..., 0, 0] - G[..., 1, 1])
    )
    r4 = abs(2j * dG[..., 1, 0] - (d2H[n + 1][..., 0, 0] - 2.0 * beta * dG[..., 0, 0]))
    res = np.maximum.reduce([r1, r2, r3, r4])
    return float(res) if res.ndim == 0 else res


def _kernels(vessel: core.FiniteVessel, x0: float, x: float, s: np.ndarray, y: float):
    """(K(x, s), Omega(s, y)) at t = 0 for the nodes s (1-D), real.

    With b, c the first columns of the pair's D^-1 B and Y, and E(u, v) =
    diag(e^{log d(u) - log d(v)}), K(x, s) = -c(x)* E(s, x) b(s) and
    Omega(s, y) = (E(s, x0) b(s))* M(x0)^-1 E(y, x0) b(y); D is never formed.
    Raises, Omega first, EvaluationError at the first node s where a kernel
    leaves the float range and NumericalConsistencyError at the first
    imaginary residue above 1e-10 (1 + |value|), both at the point (s, 0).
    """
    st = core.evaluate(vessel, np.array([x, x0]), 0.0)
    B, _, log_d = vessel.scaled(np.append(s, y), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        kval = -(np.exp(log_d[:-1] - st.log_d[0]) * B[:-1, :, 0]) @ st.Y[0, :, 0].conj()
        b = np.exp(log_d - st.log_d[1]) * B[..., 0]
        omega = b[:-1].conj() @ np.linalg.solve(st.M[1], b[-1])
    for name, v in ((f"Omega({{}}, {y})", omega), (f"K({x}, {{}})", kval)):
        core._refuse(s, 0.0, (~np.isfinite(v), EvaluationError, f"{name} overflowed", s))
        residue = np.abs(v.imag) > 1e-10 * (1.0 + np.abs(v.real))
        core._refuse(s, 0.0, (residue, NumericalConsistencyError,
                              name + " has imaginary residue {:.3e}", s, v.imag))
    return kval.real, omega.real


def gl_kernels(vessel: core.FiniteVessel, x0: float, x: float, y: float) -> tuple[float, float]:
    """(Omega(x, y), K(x, y)) at t = 0.

    Both scalars are real for the shipped constructions (X is a diagonal
    congruence of a real symmetric matrix); the imaginary residue is
    checked and discarded (see :func:`_kernels`).
    """
    kval, omega = _kernels(vessel, x0, x, np.array([x, y], dtype=float), y)
    return float(omega[0]), float(kval[1])


def gl_residual(
    vessel: core.FiniteVessel,
    x0: float,
    x: float,
    y: float,
    quadrature_nodes: int = 201,
) -> float:
    """|K(x,y) + Omega(x,y) + int_x0^x K(x,s) Omega(s,y) ds| at t = 0, composite Simpson.

    Requires x > y and an odd node count (even interval count) spanning
    [x0, x]; InvalidSpecError otherwise.  The kernels are smooth, so uniform Simpson converges at
    fourth order until roundoff.  The kernels come from :func:`_kernels`.
    """
    if not x > y:
        raise InvalidSpecError("the kernel identity is stated for x > y")
    if quadrature_nodes < 3 or quadrature_nodes % 2 == 0:
        raise InvalidSpecError("composite Simpson needs an odd node count >= 3")
    ss = np.linspace(x0, x, quadrature_nodes)  # ss[-1] == x exactly
    kval, omega = _kernels(vessel, x0, x, np.append(ss, y), y)
    w = np.ones(quadrature_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (ss[1] - ss[0]) / 3.0
    return float(abs(kval[-1] + omega[-2] + w @ (kval[:-1] * omega[:-1])))


@dataclass(frozen=True)
class QFromKReport:
    """Kernel-diagonal potential with the empirically matched sign."""

    value: float
    sigma: int
    plus_candidate: float
    minus_candidate: float
    reference: float

    def describe(self) -> str:
        return (
            f"q from kernel diagonal: matched sign sigma={self.sigma:+d}; "
            f"+2 dK/dx = {self.plus_candidate:.6e}, -2 dK/dx = {self.minus_candidate:.6e}, "
            f"reference 2 beta' = {self.reference:.6e}. The +2 convention follows from "
            "K(x,x) = beta and q = 2 beta'; the printed -2 convention does not match "
            "this kernel normalization."
        )


def q_from_K_diag(
    vessel: core.FiniteVessel,
    x: float,
    h: float = 1e-3,
    reference: float | None = None,
) -> QFromKReport:
    """Potential from the kernel diagonal at t = 0, sign matched against 2 beta'.

    Both candidates +-2 d/dx K(x, x) (centered difference) are reported;
    the primary value is the candidate matching the reference (by default
    the linkage-exact 2 beta', independent of this finite difference).
    K(x, x) = -b* X^-1 b = beta(x) for b the first column of B, so the
    diagonal is read from the evaluated beta at x +- h.
    """
    core._check_step(h)
    s = core.evaluate(vessel, np.array([x + h, x, x - h]), 0.0)
    cd = (s.beta[0] - s.beta[2]) / (2.0 * h)
    if reference is None:
        reference = 2.0 * s.beta_prime[1]
    plus, minus = 2.0 * cd, -2.0 * cd
    sigma = 1 if abs(plus - reference) <= abs(minus - reference) else -1
    return QFromKReport(
        value=plus if sigma == 1 else minus,
        sigma=sigma,
        plus_candidate=plus,
        minus_candidate=minus,
        reference=float(reference),
    )
