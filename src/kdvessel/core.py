"""Finite-dimensional operator vessels for the KdV equation.

A vessel is a collection (A, B(x,t), X(x,t); sigma1, sigma2, gamma) acting
between C^n and C^2.  The constant 2x2 parameter matrices fix the
Sturm-Liouville flavour of the construction; the operators are subject to
coupled algebraic and differential conditions:

    translation:   0 = d/dx (B sigma1) + A B sigma2 + B gamma
                   d/dx X = B sigma2 B*
    evolution:     d/dt B = i A d/dx B
                   d/dt X = i A B sigma2 B* - i B sigma2 B* A* + i B gamma B*
    Lyapunov:      A X + X A* + B sigma1 B* = 0
    linkage:       gamma_* = gamma + sigma2 B* X^-1 B sigma1
                                   - sigma1 B* X^-1 B sigma2
    normalization: tr(sigma1 B* X^-1 B) = 0

Everything a vessel produces -- the tau function det(X0^-1 X(x,t)), the
integrated potential beta = -(B* X^-1 B)_{11} and the KdV field q = 2 beta'
-- is derived from these operators, stored as one finite pair (D^-1 B, M)
with X = D M D (see :class:`FiniteVessel`).  This module holds the
parameter matrices SIGMA1, SIGMA2 and GAMMA, the vessel data model, state
evaluation and residual checks for every condition above, plus the
standard construction: :func:`integrate_standard_construction` tabulates
B and X from (A, B(x0), X(x0)) by RK4, and criterion 4 uses it as an
oracle for every entry of each closed-form family's B and X.  Every
evaluation and residual takes points x, t of any broadcast shape, flattens
them and works in stacks with the points on the last axis, the layout in
which ``operators`` returns the pair: :func:`evaluate` keeps the whole
state of each point, while every other per-point evaluator runs in the
stacks of one chunk loop.  All of them read the pair except the Lyapunov
and evolution residuals, which are about the plain B and X.  The
operators are checked where they are read (``FiniteVessel._read``):
shapes, finite entries and a Hermitian M, which every evaluator then uses
as given.  Every check at a point is a gate, a per-point mask, and each
stack refuses once, through :func:`_refuse`: the first flagged point in C
order raises the error of the first gate, in pipeline order, that flags
it, carries the point as ``.x``, ``.t`` and ends in ``[at x=..., t=...]``.
Flagged points get B = 0 and M = I before the factorization, so no stack
raises midway.

Each point of a stack costs one factorization of M (:func:`_factor`, the
one entry, which ``soliton.q_soliton`` calls too), which gives the sign
and log|det M| for tau and the solve M^-1 [D^-1 B | M P] with a fixed
Gaussian probe block P: Y = M^-1 D^-1 B and an estimate of the inverse
defect ||M^-1 M - I||_F.  At n <= 3 it is one partially pivoted
elimination, elementwise over the points (:func:`_eliminate`); above
n = 3 LAPACK's slogdet and solve factor M once each, as numpy exposes no
LU.  Per point on one default stack of
real M with 8 right-hand sides (1 BLAS thread), the elimination took
0.19-0.36 of the time of slogdet and solve at n = 1-3, 0.36-0.57 at n = 4
and 0.78-1.22 at n = 8, and 1.0-1.8 from n = 12 (README, "Numerical
conventions"); the split cannot go as high as the tie (see
_ELIMINATION_N).  The dense defect gate ||M^-1 M - I||_F <= _INVERSE_TOL
sqrt(n) runs only on the points the estimate does not clear by a margin
of 1000.  That it clears no point the gate would refuse is measured, not
proved (see _PROBE_MARGIN).

Sign convention: the Lyapunov condition is used in the homogeneous form
A X + X A* + B sigma1 B* = 0, which is the form the closed-form
constructions satisfy identically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .exceptions import (
    ClassificationError,
    EvaluationError,
    InvalidSpecError,
    NumericalConsistencyError,
)

__all__ = [
    "FiniteVessel",
    "EvaluatedState",
    "FieldValues",
    "ResidualReport",
    "evaluate",
    "evaluate_fields",
    "log_tau",
    "lyapunov_residual",
    "lyapunov_self_check",
    "normalization_residual",
    "evolution_residuals",
    "inertia",
    "inertia_label",
    "integrate_standard_construction",
]

# The three constant parameter matrices.  Bit-exact by construction; treat
# as read-only.
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA2 = np.array([[1.0, 0.0], [0.0, 0.0]])
GAMMA = np.array([[0.0, 0.0], [0.0, 1j]])
for _m in (SIGMA1, SIGMA2, GAMMA):
    _m.setflags(write=False)

# The stacked evaluator factors at most this many matrix entries at once
# (2^16: 16 points at n = 64, one at n = 256), so memory stays flat in the
# grid size.
_CHUNK_ENTRIES = 2**16

# Tolerances of state evaluation: the asymmetry ||M - M*||_F that the
# operator read allows relative to 1 + ||M||_F (X0's too), the inverse
# defect ||M^-1 M - I||_F per sqrt(n), and the imaginary residues of beta
# and tau.  The defect gate is always the dense one, inv(M) M - I; it runs
# only on the points that the probe certificate of _probe_solve does not
# clear.
_HERMIT_TOL = 1e-12
_INVERSE_TOL = 1e-10
_IMAG_TOL = 1e-10

# The probe block P is n x _PROBES standard Gaussian, drawn once per n from
# the fixed seed _PROBE_SEED, so results are reproducible and the same for
# any stack size.  est = ||M^-1 (M P) - P||_F / 2 comes from the solve that
# gives Y; a point is cleared when est <= gate / _PROBE_MARGIN, and every
# other point gets the dense defect.  That no cleared point would fail the
# dense gate is measured, not bounded: est reads the solve's error on M P,
# not the gated defect E = inv(M) M - I.  On the points sent to the dense
# gate, ||E||_F / est reached 31 (twelve close solitons), 67 (the same with
# a complex M) and 73 (an 8-soliton), 13x inside the margin.  On a badly
# scaled M, as a soliton's plain X (D = I) is, the ratio has no bound, but
# only where ||E||_F is far above the gate; no cleared point came within
# 1/20 of the gate.  The margin cannot grow much: est reaches 6e-5 of the
# gate on well-conditioned n = 256 quadrature dumps.  The random draw adds
# a miss of its own: for a rank-one E, 4 probes read below 1/1000 of
# ||E||_F with probability P(chi^2_4 < 4e-6) ~ 2e-12 (Dixon, SIAM J. Numer.
# Anal. 20 (1983) 812-814), and P is one fixed draw.
_PROBES = 4
_PROBE_SEED = 20110
_PROBE_MARGIN = 1000.0

# Up to this n every stacked determinant and solve of M comes from one
# _eliminate per stack, elementwise over the points; above it from LAPACK,
# whose per-matrix call costs more than the arithmetic at small n and
# which ties with it near n = 8.  The split is not that high because at
# n = 8 the elimination rounds past the exact zero pivot that LAPACK's LU
# meets on the close 8-soliton at (5.0, 0.9090909090909092), where
# log_tau and q_soliton would then return numbers.
_ELIMINATION_N = 3


def _fro(m) -> float:
    return float(np.linalg.norm(m))


def _point_rows(a) -> np.ndarray:
    """The points-last stack a (..., m) as m C-contiguous rows, one per
    point, with its entries in C order; a copy unless the memory already
    holds the points first.  A reduction over a row runs as it would on
    one point, so its value does not depend on the stack size."""
    return np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T)


def _points_first(a, shape) -> np.ndarray:
    """The points-last stack a (..., m) as a view of shape S + (...) for
    points of broadcast shape S, m = prod(S).  (np.moveaxis would cost
    single points more than the transpose.)"""
    return a.transpose(-1, *range(a.ndim - 1)).reshape(shape + a.shape[:-1])


def _sumsq_stack(m) -> np.ndarray:
    """Squared Frobenius norms of a stack of matrices (r, c, m): one dot product each."""
    v = _point_rows(m)
    if np.iscomplexobj(v):
        v = v.view(float)  # interleaved real and imaginary parts
    return np.einsum("...i,...i->...", v, v)


def _fro_stack(m) -> np.ndarray:
    """Frobenius norms of a stack of matrices (r, c, m)."""
    return np.sqrt(_sumsq_stack(m))


def _exponent(m, axis) -> np.ndarray:
    """Binary exponents e of max |m| over ``axis``, max |m| = f 2^e with
    1/2 <= f < 1 (0 where it is 0): m 2^-e has entries below 1, and the
    power of two scales every entry exactly."""
    return np.frexp(np.abs(m).max(axis=axis))[1]


def _nonfinite(m) -> np.ndarray:
    """Per matrix of a stack (r, c, m): a non-finite entry?  One pass if none has."""
    ok = np.isfinite(m)
    return np.zeros(m.shape[-1], dtype=bool) if ok.all() else ~ok.all(axis=(0, 1))


def _adjoint(m) -> np.ndarray:
    """Conjugate transpose of each matrix in a points-last stack (r, c, ...)."""
    return np.swapaxes(m, 0, 1).conj()


def _flat_points(x, t):
    """The broadcast points x, t as two flat float arrays, in C order."""
    xb, tb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    return xb.ravel(), tb.ravel()


def _per_point(n: int, x, t, fn, count: int) -> np.ndarray:
    """``count`` per-point results of fn(xs, ts) over the broadcast points x, t.

    fn sees 1-D stacks of at most _CHUNK_ENTRIES / n^2 points (at least
    one); the result has shape (count,) + broadcast shape.  A stack that
    fn refuses raises, so the first chunk with a failing point names it.
    """
    xf, tf = _flat_points(x, t)
    out = np.empty((count, xf.size))
    step = max(1, _CHUNK_ENTRIES // n**2)
    for s in range(0, xf.size, step):
        out[:, s:s + step] = fn(xf[s:s + step], tf[s:s + step])
    return out.reshape((count,) + np.broadcast_shapes(np.shape(x), np.shape(t)))


def _floats(rows) -> tuple:
    """The rows of a :func:`_per_point` result, floats for scalar points."""
    return tuple(r if r.ndim else float(r) for r in rows)


def _refuse(x, t, *gates) -> None:
    """Raise at the first point of a stack that a gate flags, if any.

    Each gate is (bad, error, message, *values), listed in pipeline order,
    with one flag per point of the broadcast x, t in ``bad`` (C order, in
    their shape or flat).  The first flagged point raises the error of the
    first gate that flags it, with ``message.format`` of each value (flat
    or of bad's shape) at the point, and the error carries its x and t.
    """
    if not any(gate[0].any() for gate in gates):
        return
    flags = [np.ravel(gate[0]) for gate in gates]
    i = min(int(np.argmax(f)) for f in flags if f.any())
    _, error, message, *values = next(g for g, f in zip(gates, flags) if f[i])
    x, t = np.broadcast_arrays(x, t)
    raise error(message.format(*(np.ravel(v)[i] for v in values)),
                x=float(x.flat[i]), t=float(t.flat[i]))


def _check_step(h) -> None:
    """ValueError unless the finite-difference step h is positive and finite."""
    if not 0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h!r}")


# The error of the gate sign det M == 0, a zero pivot
_SINGULAR = (EvaluationError, "singular Gram operator")


def _cmul(a, b) -> np.ndarray:
    """The complex product a b, elementwise, from real products: numpy's
    complex multiply rounds differently in its loops for one element and
    for many, which would make values depend on the stack size."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _eliminate(W):
    """(sign det M, log|det M|, M^-1 R) for the augmented stack W = [M | R]
    (n, n + r, m), C-contiguous with the points on the last axis, from one
    Gaussian elimination with partial pivoting; the solve is (n, r, m),
    points last, a view of W, which the elimination overwrites.

    Every step is an elementwise pass over the points, done in the same
    order at any stack size; complex products and quotients are formed
    from real ones (:func:`_cmul`), so the values do not depend on the
    stack size.  Each pivot is the entry of largest |re| + |im| in its
    column (the first of equals), as LAPACK picks it.  The sign is a unit
    phase for complex M; where a pivot is exactly 0 it is 0, log|det M| is
    -inf and the solve is not finite.  With r = 0 the solve is None.
    """
    n, m = W.shape[0], W.shape[-1]
    r = W.shape[1] - n
    real, U = not np.iscomplexobj(W), W.view(np.uint64)
    mul = np.multiply if real else _cmul
    swapped, singular = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    phase, logabs, recip = np.ones(m, dtype=W.dtype), np.zeros(m), []

    def over_pivot(a, k):  # a / W[k, k]: one division, or a product with 1 / W[k, k]
        return a / W[k, k] if real else _cmul(a, recip[k])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            col = W[k:, k]
            mag = np.abs(col) if real else np.abs(col.real) + np.abs(col.imag)
            for i in range(k + 1, n):
                # row i takes row k's place where it is strictly larger in
                # column k, so the first largest entry ends there
                s = mag[i - k] > mag[0]
                if s.any():  # exchange rows k and i where s, bit by bit
                    d = U[k, k:] ^ U[i, k:]
                    d &= np.repeat(s, U.shape[-1] // m) * ~np.uint64(0)
                    U[k, k:] ^= d
                    U[i, k:] ^= d
                    swapped ^= s
                    mag[0] = np.maximum(mag[0], mag[i - k])
            piv = W[k, k]
            if real:
                size, unit = np.abs(piv), np.sign(piv)
            else:  # piv / |piv| and 1 / piv = conj(piv / |piv|) / |piv|, part by part
                size = np.hypot(piv.real, piv.imag)
                unit, inverse = np.empty_like(piv), np.empty_like(piv)
                unit.real, unit.imag = piv.real / size, piv.imag / size
                inverse.real, inverse.imag = unit.real / size, -unit.imag / size
                recip.append(inverse)
            singular |= size == 0
            logabs += np.log(size)
            phase = mul(phase, unit)
            for i in range(k + 1, n):
                W[i, k + 1:] -= mul(over_pivot(W[i, k], k), W[k, k + 1:])
        sign = np.where(singular, 0.0, np.where(swapped, -phase, phase))
        if not r:
            return sign, logabs, None
        Z = W[:, n:]  # back substitution in place, row by row
        for i in reversed(range(n)):
            for j in range(i + 1, n):
                Z[i] -= mul(W[i, j], Z[j])
            Z[i] = over_pivot(Z[i], i)
    return sign, logabs, Z


def _factor(M, R):
    """(sign det M, log|det M|, M^-1 R (n, r, m)) over the stack M (n, n, m)
    and right-hand sides R (n, r, m), of any strides; R None gives no
    solve.  The sign is 0 at a zero pivot, where the solve is not finite.
    Nothing raises.

    At n <= _ELIMINATION_N, [M | R] fills one buffer for :func:`_eliminate`;
    above it LAPACK's slogdet, and solve for R, factor M once each, on
    points-first views.  slogdet runs in the solve's dtype, so it meets the
    zero pivots solve would meet, and solve gets I in place of those points
    (its result there is R).
    """
    n, m = M.shape[0], M.shape[-1]
    if n <= _ELIMINATION_N:
        R = np.empty((n, 0, m), dtype=M.dtype) if R is None else R
        W = np.empty((n, n + R.shape[1], m), dtype=np.result_type(M, R))
        W[:, :n], W[:, n:] = M, R  # W[i] is row i of [M | R]
        return _eliminate(W)
    M = M.transpose(2, 0, 1)
    if R is None:
        return (*np.linalg.slogdet(M), None)
    sign, logabs = np.linalg.slogdet(M.astype(np.result_type(M, R), copy=False))
    singular = (sign == 0)[:, None, None]
    if singular.any():
        M = np.where(singular, np.eye(n), M)
    return sign, logabs, np.linalg.solve(M, R.transpose(2, 0, 1)).transpose(1, 2, 0)


@dataclass(frozen=True)
class FiniteVessel:
    """A finite-dimensional vessel realization.

    ``operators(x, t)`` is the one operator source: the pair (D^-1 B, M)
    and ``log d`` with X = D M D for D = diag(e^log d), B the n x 2
    coupling and X the n x n Hermitian Gram operator.  ``log d`` has one
    entry per generator, or is the scalar 0.0 where D = I (every family
    but the soliton); a nonzero one needs a diagonal A, which D commutes
    with.  ``X0`` is the reference operator for the tau function.  ``kind``
    tags the construction family (soliton | discrete | quadrature).

    ``operators(x, t)`` is called with 1-D float arrays x, t of one length
    m (the flat points; m = 1 for one point), of any strides, and returns
    D^-1 B as (n, 2, m), M as (n, n, m) and log d as (n, m) or 0.0, with
    the points on the last axis and any strides.  It must be a pure function
    of (x, t) and must not raise: a non-finite entry passes through, and
    the operator read names its point.  M keeps the dtype its construction
    gives it (real whenever the couplings are real).
    ``A_diag`` holds the diagonal a of A when A is diagonal (every
    closed-form family), else None; the Lyapunov residual forms its
    weights a_i + conj(a_j) from it once per check.  ``log_abs_det_X0``
    and ``sign_det_X0`` are computed once for the tau function.
    """

    n: int
    A: np.ndarray
    operators: Callable
    X0: np.ndarray
    kind: str
    # construction metadata: generator wavenumbers / folded couplings
    metadata: Optional[dict] = field(default=None, compare=False)
    spectrum: np.ndarray = field(init=False, compare=False)
    A_diag: Optional[np.ndarray] = field(init=False, compare=False, repr=False)
    log_abs_det_X0: float = field(init=False, compare=False, repr=False)
    sign_det_X0: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        if A.shape != (self.n, self.n):
            raise InvalidSpecError(f"A must be {self.n}x{self.n}, got {A.shape}")
        X0 = np.asarray(self.X0, dtype=complex)
        if _fro(X0 - X0.conj().T) > _HERMIT_TOL * (1.0 + _fro(X0)):
            raise InvalidSpecError("X0 must be Hermitian")
        sign0, logdet0 = np.linalg.slogdet(X0)
        if sign0 == 0:
            raise InvalidSpecError("X0 must be invertible")
        diag = np.diag(A)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "X0", X0)
        object.__setattr__(self, "spectrum", np.linalg.eigvals(A))
        object.__setattr__(self, "A_diag",
                           diag if np.array_equal(A, np.diag(diag)) else None)
        object.__setattr__(self, "log_abs_det_X0", float(logdet0))
        # X0 is Hermitian, so its determinant is real
        object.__setattr__(self, "sign_det_X0", float(np.sign(sign0.real)))

    def _read(self, x, t, plain=False):
        """(B, X, log d, gates): the pair (D^-1 B, M) at the flat points x, t,
        or with ``plain`` (B, X) = (D (D^-1 B), D M D), points last, log d
        (n, m), and the read's gates for :func:`_refuse`, unraised: B
        overflowed, X overflowed, ||X - X*||_F > _HERMIT_TOL (1 + ||X||_F).
        Points they flag get B = 0 and X = I, so the work after the read
        stays finite."""
        B, X, log_d = self.operators(x, t)
        if plain and np.any(log_d):
            # an overflow passes through as inf, which the gates name
            with np.errstate(over="ignore", invalid="ignore"):
                d = np.exp(log_d)
                B, X = d[:, None] * B, d[:, None] * d[None, :] * X
        B, X = np.asarray(B, dtype=complex), np.asarray(X)
        for what, a, cols in (("coupling B", B, 2), ("Gram operator X", X, self.n)):
            want = (self.n, cols, x.size)
            if a.shape != want:
                raise InvalidSpecError(f"{what} has shape {a.shape}, expected {want}")
        b_inf, x_inf = _nonfinite(B), _nonfinite(X)
        # an asymmetry past the float range reads inf; a non-finite X is flagged anyway
        with np.errstate(over="ignore", invalid="ignore"):
            asym, norm = _fro_stack(X - _adjoint(X)), _fro_stack(X)
            asym_bad = asym > _HERMIT_TOL * (1.0 + norm)
            if not np.isfinite(norm).all():
                # the squares overflow past |X_ij| ~ 1e154, so those points
                # are judged at X 2^-e: the power of two leaves asym / (1 + ||X||)
                unit = np.ldexp(1.0, -np.where(np.isfinite(norm), 0, _exponent(X, (0, 1))))
                Xs = X * unit
                asym = _fro_stack(Xs - _adjoint(Xs))
                asym_bad = asym > _HERMIT_TOL * (unit + _fro_stack(Xs))
                asym = asym / unit
        flagged = b_inf | x_inf | asym_bad
        if flagged.any():
            B, X = np.where(flagged, 0j, B), np.where(flagged, np.eye(self.n)[..., None], X)
        gates = ((b_inf, EvaluationError, "coupling B overflowed"),
                 (x_inf, EvaluationError, "Gram operator X overflowed"),
                 (asym_bad, NumericalConsistencyError,
                  "X asymmetry {:.3e} exceeds " f"{_HERMIT_TOL:.1e}*(1+||X||)", asym))
        return B, X, np.broadcast_to(log_d, X.shape[1:]), gates

    def _checked(self, x, t, plain):
        """The operators of :meth:`_read` at the points x, t of broadcast
        shape S, refused at their first flagged point, as views of shapes
        S + (...)."""
        xf, tf = _flat_points(x, t)
        *operators, gates = self._read(xf, tf, plain)
        _refuse(xf, tf, *gates)
        shape = np.broadcast_shapes(np.shape(x), np.shape(t))
        return tuple(_points_first(a, shape) for a in operators)

    def scaled(self, x, t):
        """(D^-1 B, M, log d) at the points x, t of broadcast shape S, checked
        like :meth:`plain`: shapes S + (n, 2), S + (n, n) and S + (n,)."""
        return self._checked(x, t, plain=False)

    def plain(self, x, t):
        """(B, X) = (D (D^-1 B), D M D) at the points x, t; EvaluationError
        at the first point where either overflows, NumericalConsistencyError
        where X is not Hermitian."""
        return self._checked(x, t, plain=True)[:2]

    def B(self, x, t) -> np.ndarray:
        """Coupling B(x, t); broadcasts over arrays of points."""
        return self.plain(x, t)[0]

    def X(self, x, t) -> np.ndarray:
        """Gram operator X(x, t) in its construction's dtype; broadcasts over points."""
        return self.plain(x, t)[1]


@dataclass(frozen=True)
class FieldValues:
    """beta, beta' and tau = tau_sign * e^log_abs_tau at points x, t.

    All values share the broadcast shape of the (x, t) the evaluator was
    given (floats for scalar points from :func:`evaluate`).  ``tau`` is
    +-inf where |tau| passes the float range.
    """

    beta: float | np.ndarray
    beta_prime: float | np.ndarray
    log_abs_tau: float | np.ndarray
    tau_sign: float | np.ndarray

    @property
    def q(self):
        """KdV field q = 2 beta'."""
        return 2.0 * self.beta_prime

    @property
    def tau(self):
        with np.errstate(over="ignore"):
            tau = self.tau_sign * np.exp(self.log_abs_tau)
        return float(tau) if np.ndim(tau) == 0 else tau


@dataclass(frozen=True)
class EvaluatedState(FieldValues):
    """The fields plus the pair and gamma_* at the points x, t (as given).

    ``B`` is D^-1 B, ``M`` the M that was read, ``Y`` = M^-1 D^-1 B from the
    certified solve that gives the fields (:func:`_probe_solve`) and
    ``log_d`` the per-generator log d.  For points of broadcast shape S,
    B and Y are S + (n, 2), M S + (n, n), log_d S + (n,), gamma_* S + (2, 2)
    and the scalars S (floats for S = ()).  B* X^-1 F(A) B = Y* F(A) B for
    diagonal A, as D commutes with it.
    ``beta_prime`` is d beta/dx read from the linkage:
    gamma_*[0,0] = -i(beta' - beta^2).
    """

    x: float | np.ndarray
    t: float | np.ndarray
    B: np.ndarray
    M: np.ndarray
    Y: np.ndarray
    log_d: np.ndarray
    gamma_star: np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    """Frobenius norms of the differential vessel-condition residuals at one
    (x, t), from centered differences of step h."""

    r_DB: float
    r_DX: float
    r_DBt: float
    r_DXt: float
    h: float

    def as_dict(self) -> dict:
        return asdict(self)

    def max_differential(self) -> float:
        return max(self.r_DB, self.r_DX, self.r_DBt, self.r_DXt)


def _bstar_y(B, Y, i, j):
    """(B* Y)_ij at each point of the points-last stacks B and Y (n, 2, ...)."""
    return np.einsum("k...,k...->...", B[:, i].conj(), Y[:, j])


def _gamma_star(B: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Output parameter matrix gamma_* from the linkage condition.

    Returns gamma + sigma2 M sigma1 - sigma1 M sigma2 with M = B* X^-1 B,
    from the points-last stacks B and Y = X^-1 B (n, 2, ...), summing only
    the entries M_00, M_01 and M_10 that it reads.  The result, (2, 2, ...),
    has the shape [[-i(beta'-beta^2), -beta], [beta, i]] for the real
    scalars beta, beta' encoded by the vessel.
    """
    m00, m01, m10 = (_bstar_y(B, Y, i, j) for i, j in ((0, 0), (0, 1), (1, 0)))
    # gamma + sigma2 M sigma1 - sigma1 M sigma2, entry by entry
    gs = np.empty((2, 2) + m00.shape, dtype=complex)
    gs[0, 0] = m01 - m10
    gs[0, 1], gs[1, 0], gs[1, 1] = m00, -m00, GAMMA[1, 1]
    return gs


@functools.lru_cache(maxsize=None)
def _probe_block(n: int) -> np.ndarray:
    P = np.random.default_rng(_PROBE_SEED).standard_normal((n, _PROBES))
    P.setflags(write=False)
    return P


def _probe_solve(X, B):
    """(sign det X, log|det X|, Y = X^-1 B, gates) for the points-last stacks
    X (n, n, m) and B (n, 2, m) from one :func:`_factor` per point,
    X^-1 [B | X P], with Y certified by the probe columns (see
    _PROBE_MARGIN).

    The solve is backward stable, so Y takes no refinement.  Points whose
    estimate est = ||X^-1 (X P) - P||_F / 2 does not clear them (a NaN
    included) get the dense defect inv(X) X - I, on those points only; the
    points there whose LAPACK factorization is singular get I in the
    inverse and sign 0.  The gates, in pipeline order: a zero pivot, and a
    dense defect above _INVERSE_TOL sqrt(n).
    """
    n, m = X.shape[0], X.shape[-1]
    P = _probe_block(n)
    real = not np.iscomplexobj(X)  # keep the work in real arithmetic
    c = 4 if real else 2
    R = np.empty((n, c + _PROBES, m), dtype=X.dtype)  # [B | X P], X P from one GEMM
    # for a real X, B as the real columns Re b0, Im b0, Re b1, Im b1
    R[:, :c] = np.stack((B.real, B.imag), axis=2).reshape(n, c, m) if real else B
    R[:, c:] = (_point_rows(X).reshape(-1, n) @ P).reshape(m, n, _PROBES).transpose(1, 2, 0)
    sign, logabs, Z = _factor(X, R)
    est = 0.5 * _fro_stack(Z[:, c:] - P[..., None])
    gate = _INVERSE_TOL * math.sqrt(n)
    hard = np.flatnonzero(~(est <= gate / _PROBE_MARGIN))
    defect = np.zeros(m)
    if hard.size:
        Xh = np.ascontiguousarray(X[..., hard].transpose(2, 0, 1))
        singular = np.linalg.slogdet(Xh)[0] == 0  # the LU that inv runs
        sign[hard[singular]] = 0
        Xh[singular] = np.eye(n)
        defect[hard] = _fro_stack((np.linalg.inv(Xh) @ Xh - np.eye(n)).transpose(1, 2, 0))
    Y = Z[:, :c]
    if real:  # back to the complex columns of Y
        Y = np.empty((n, 2, m), dtype=complex)
        Y.real, Y.imag = Z[:, 0:c:2], Z[:, 1:c:2]
    return sign, logabs, Y, (
        (sign == 0, *_SINGULAR),
        (defect > gate, EvaluationError,
         "Gram operator too ill-conditioned (inverse defect {:.3e})", defect))


def _beta_of_gamma_star(gs):
    """(real beta, gate) of a stack of gamma_* (2, 2, m): beta = (gamma_*)_{21},
    whose imaginary residue must stay below _IMAG_TOL relative to 1 + |beta|."""
    beta = gs[1, 0]
    return beta.real, (np.abs(beta.imag) > _IMAG_TOL * (1.0 + np.abs(beta.real)),
                       NumericalConsistencyError,
                       "beta has imaginary residue {:.3e} above " f"tolerance {_IMAG_TOL:.1e}",
                       beta.imag)


def _tau_stack(vessel, sign, logdet):
    """(log|tau|, real sign tau, gates) of tau = det M / det X0 over a
    stack, from the sign and log|det M| of :func:`_factor`.

    A complex sign's imaginary residue relative to max(1, |tau|) must stay
    below _IMAG_TOL: its gate, and no gate for a real sign.
    """
    logabs, sign = logdet - vessel.log_abs_det_X0, sign / vessel.sign_det_X0
    if not np.iscomplexobj(sign):
        return logabs, sign, ()
    with np.errstate(over="ignore"):
        bound = _IMAG_TOL * np.maximum(np.exp(-logabs), np.abs(sign.real))
    return logabs, sign.real, ((np.abs(sign.imag) > bound, NumericalConsistencyError,
                                "tau has relative imaginary residue {:.3e}", sign.imag),)


def _state_stack(vessel, x, t):
    """Checked evaluation of the pair at the flat points x, t.

    Returns (D^-1 B, M, Y, log d, gamma_*, beta, beta', log|tau|, sign tau)
    with the points last, with M as :meth:`FiniteVessel._read` reads it,
    Y = M^-1 D^-1 B certified and det M from one factorization per point
    (:func:`_probe_solve`) and log|tau| = log|det M / det X0| +
    2 sum log d.  One :func:`_refuse` of all their gates names the first
    failing point.
    """
    B, M, log_d, gates = vessel._read(x, t)
    with np.errstate(all="ignore"):  # the flagged points may not be finite
        sign, logdet, Y, solve_gates = _probe_solve(M, B)
        gs = _gamma_star(B, Y)
        beta, beta_gate = _beta_of_gamma_star(gs)
        logabs, sign, tau_gates = _tau_stack(vessel, sign, logdet)
        beta_p = beta**2 + 1j * gs[0, 0]
    _refuse(x, t, *gates, *solve_gates, beta_gate, *tau_gates,
            (np.abs(beta_p.imag) > 1e-9 * (1.0 + np.abs(beta_p.real)), NumericalConsistencyError,
             "beta' has imaginary residue {:.3e}", beta_p.imag))
    return B, M, Y, log_d, gs, beta, beta_p.real, logabs + 2.0 * _point_rows(log_d).sum(-1), sign


def evaluate(vessel: FiniteVessel, x, t) -> EvaluatedState:
    """Evaluate a vessel's pair at points x, t and derive gamma_*, beta, beta' and tau.

    One :func:`_state_stack` over all points, unchunked since it keeps the
    pair and Y of each, with M as the operator read checked it (Hermitian
    within _HERMIT_TOL (1 + ||M||)).  Raises at the first failing point (C
    order), e.g. EvaluationError where the pair overflows or M is singular
    or too ill-conditioned for ``inv(M) M = I`` within _INVERSE_TOL sqrt(n).
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(t))
    B, M, Y, log_d, gs, *fields = (_points_first(a, shape)
                                   for a in _state_stack(vessel, *_flat_points(x, t)))
    beta, beta_p, logabs, sign = _floats(fields)
    return EvaluatedState(x=x, t=t, B=B, M=M, Y=Y, log_d=log_d, gamma_star=gs, beta=beta,
                          beta_prime=beta_p, log_abs_tau=logabs, tau_sign=sign)


def evaluate_fields(vessel: FiniteVessel, x, t) -> FieldValues:
    """beta, beta' and log|tau| with its sign at every point of arrays x, t.

    The fields of :func:`evaluate`, with every check, from its
    :func:`_state_stack` in stacks of at most _CHUNK_ENTRIES matrix
    entries, keeping no matrix.  Stacks of any size give bit-identical
    values.
    """
    beta, beta_p, logabs, sign = _per_point(
        vessel.n, x, t, lambda xs, ts: _state_stack(vessel, xs, ts)[-4:], 4)
    return FieldValues(beta=beta, beta_prime=beta_p, log_abs_tau=logabs, tau_sign=sign)


def log_tau(vessel: FiniteVessel, x, t):
    """(log|tau|, sign) of tau = det X / det X0 from one factorization per point.

    Needs no inverse, so it also serves points where M is too
    ill-conditioned for :func:`evaluate`; tau = sign e^{log|tau|}.  Reads
    the vessel's pair like :func:`evaluate`, det X = det M e^{2 sum log d},
    so it raises EvaluationError where the pair overflows or M has a zero
    pivot.  Broadcasts like :func:`lyapunov_residual`.
    """
    def stack(xs, ts):
        _, M, log_d, gates = vessel._read(xs, ts)
        sign, logdet, _ = _factor(M, None)
        logabs, real_sign, tau_gates = _tau_stack(vessel, sign, logdet)
        _refuse(xs, ts, *gates, (sign == 0, *_SINGULAR), *tau_gates)
        return logabs + 2.0 * _point_rows(log_d).sum(-1), real_sign

    return _floats(_per_point(vessel.n, x, t, stack, 2))


def _sum_of_products(terms):
    """The sum of +-a b over the terms (sign, a, b) with both factors, in
    order, elementwise, in one buffer and one scratch array (a fresh array
    per term would cost page faults on every call); None for no term."""
    total = scratch = None
    for sign, a, b in terms:
        if a is None or b is None:
            continue
        if total is None:
            total = a * b
            if sign < 0:
                np.negative(total, out=total)
        else:
            scratch = np.multiply(a, b, out=scratch)
            (np.add if sign > 0 else np.subtract)(total, scratch, out=total)
    return total


def _lyapunov_weights(a):
    """(Re w, Im w) of the weights w_ij = a_i + conj(a_j) of
    A X + X A* = [w_ij X_ij] for the diagonal a of A, Re w None where
    Re a = 0 (every closed-form family); None where A is not diagonal (a is
    None).  Each is (n, n, 1), to broadcast over the points of a
    points-last stack.  Formed once per check, not kept on the vessel: a caller that
    keeps many vessels would keep their n^2 weights too."""
    if a is None:
        return None
    re, im = a.real[:, None], a.imag[:, None]
    return (re[:, None] + re if re.any() else None, im[:, None] - im)


def _lyapunov_norms(A, weights, B, X):
    """(||R||_F, ||X||_F) per state of the points-last stacks B (n, 2, m)
    and X (n, n, m), R = A X + X A* + B sigma1 B*.

    ``weights`` is :func:`_lyapunov_weights` of the diagonal of A, or None
    for the general products A X and X A*.  With weights, R is formed in
    real arithmetic, part by part: with b0 = p + i q and b1 = r + i s the
    columns of B,

        Re R = Re w Re X - Im w Im X + p r' + r p' + q s' + s q',
        Im R = Im w Re X + Re w Im X + q r' - r q' + s p' - p s',

    and ||R||^2 = ||Re R||^2 + ||Im R||^2.  A term is left out only where
    it is exactly zero: Re w where Re a = 0, Im X for a real X, and an
    outer product with a column that is zero over the whole stack.  Every
    closed-form family (Re a = 0; real couplings: X real, b0 real and b1
    imaginary) thus forms Im R = Im w X + s p' - p s' alone.  Each term is
    one elementwise product, so a point's value does not depend on its
    stack.
    """
    if weights is None:
        R = np.einsum("ij,jk...->ik...", A, X) + np.einsum("ij...,kj->ik...", X, A.conj())
        R += B[:, None, 0] * B[None, :, 1].conj() + B[:, None, 1] * B[None, :, 0].conj()
        return _fro_stack(R), _fro_stack(X)
    w_re, w_im = weights
    X_re, X_im = (X.real, X.imag) if np.iscomplexobj(X) else (X, None)
    # each column of B as a column and as a row, None where it is all zero
    (p, p_), (q, q_), (r, r_), (s, s_) = (
        (c[:, None], c[None, :]) if c.any() else (None, None)
        for c in (B[:, 0].real, B[:, 0].imag, B[:, 1].real, B[:, 1].imag))
    re = ((1, p, r_), (1, r, p_), (1, q, s_), (1, s, q_), (1, w_re, X_re), (-1, w_im, X_im))
    im = ((1, q, r_), (-1, r, q_), (1, s, p_), (-1, p, s_), (1, w_im, X_re), (1, w_re, X_im))
    squares = 0.0
    for part in (re, im):
        R = _sum_of_products(part)
        if R is not None:
            squares = squares + _sumsq_stack(R)
    return np.sqrt(squares), _fro_stack(X)


def _lyapunov_stack(vessel, weights, plain, x, t) -> np.ndarray:
    """The normalized Lyapunov residual at each of the flat points x, t of
    the plain (B, X), or with ``plain`` False of the pair (D^-1 B, M);
    ``weights`` = _lyapunov_weights(vessel.A_diag).  The read's gates
    refuse the stack first."""
    B, X, _, gates = vessel._read(x, t, plain)
    _refuse(x, t, *gates)
    # the squares inside the norms overflow past |X_ij| ~ 1e154; B and X
    # scaled per point by the exact powers of two 2^-e and 4^-e, with 4^e
    # ~ max |X_ii| (>= |X_ij| when X >= 0), leave the ratio bit for bit.
    # The copies are skipped where no point needs them (e = 0).
    e = _exponent(np.diagonal(X), -1) // 2
    if e.any():
        B, X = B * np.ldexp(1.0, -e), X * np.ldexp(1.0, -2 * e)
    res, norm_x = _lyapunov_norms(vessel.A, weights, B, X)
    return res / (np.ldexp(1.0, -2 * e) + norm_x)


def lyapunov_residual(vessel: FiniteVessel, x, t):
    """|| A X + X A* + B sigma1 B* ||_F / (1 + ||X||_F).

    Broadcasts over arrays of points, evaluated in stacks of at most
    _CHUNK_ENTRIES matrix entries; a float for scalar x and t.  Finite
    wherever B and X are.
    """
    weights = _lyapunov_weights(vessel.A_diag)
    return _floats(_per_point(
        vessel.n, x, t, lambda xs, ts: _lyapunov_stack(vessel, weights, True, xs, ts), 1))[0]


def lyapunov_self_check(vessel: FiniteVessel) -> None:
    """Build-time check: Lyapunov residual below 1e-12 at 50 seeded points.

    Every closed-form builder runs it on the vessel it returns; there is
    no opt-out.  The points are uniform on [-2, 2] x [-0.5, 0.5] (seed 0).
    It checks the finite pair of :meth:`FiniteVessel.scaled`: as D commutes
    with the diagonal A,
    A M + M A* + (D^-1 B) sigma1 (D^-1 B)* = D^-1 (A X + X A* + B sigma1 B*) D^-1,
    relative to 1 + ||M||, so solitons of any k build; where D = I it is
    :func:`lyapunov_residual`.  With a diagonal A the residual is formed in
    real arithmetic from weights formed once per call (see
    :func:`_lyapunov_norms`, which :func:`lyapunov_residual` shares); on
    every closed-form family with real couplings only its imaginary part
    is nonzero, and only that part is formed.  A residual above 1e-12
    raises InvalidSpecError naming its point; an overflowing D^-1 B or M,
    EvaluationError at its point.

    Blind spot: for diagonal skew-Hermitian A the residual weighs M_ij by
    a_i + conj(a_j) = +-i (k_i^2 - k_j^2), which is 0 on the diagonal and
    O(|k_i - k_j|) on near-degenerate pairs, so errors there go unseen.
    On the trigonometric vessels (A = diag(i k^2)) that is the near-set
    branch of ``spectral.trig_kernel``, which the 30-digit mpmath
    comparison in ``tests/test_spectral.py`` covers; on the soliton
    (A = diag(-i k^2)) the diagonal M_ii, which criterion 2's closed-form
    determinant (``suite.check_cauchy_determinant``) guards.  On every
    family, criterion 4's construction oracle sees both: X' = B sigma2 B*
    fixes each entry (X_ii' = |B_i1|^2 on the diagonal), and the RK4
    tables of :func:`integrate_standard_construction` from the family's
    own (A, B(x0), X(x0)) must match its plain B and X.
    """
    rng = np.random.default_rng(0)
    xs, ts = rng.uniform([-2.0, -0.5], [2.0, 0.5], size=(50, 2)).T
    weights = _lyapunov_weights(vessel.A_diag)
    res = _per_point(vessel.n, xs, ts,
                     lambda xs, ts: _lyapunov_stack(vessel, weights, False, xs, ts), 1)[0]
    _refuse(xs, ts, (res > 1e-12, InvalidSpecError,
                     f"{vessel.kind} self-check failed: " "Lyapunov residual {:.3e}", res))


def normalization_residual(vessel: FiniteVessel, x, t):
    """|tr(sigma1 B* X^-1 B)|; vanishes whenever tr(A + A*) = 0.

    Computed through a direct solve so ill-conditioned (but nonsingular)
    states remain checkable.  Broadcasts like :func:`lyapunov_residual`.
    """
    def stack(xs, ts):  # D cancels: B* X^-1 B = (D^-1 B)* M^-1 (D^-1 B)
        B, M, _, gates = vessel._read(xs, ts)
        with np.errstate(all="ignore"):  # the flagged points may not be finite
            sign, _, Z = _factor(M, B)
            res = np.abs(_bstar_y(B, Z, 0, 1) + _bstar_y(B, Z, 1, 0))  # tr(sigma1 B* Z)
        _refuse(xs, ts, *gates, (sign == 0, *_SINGULAR))
        return res

    return _floats(_per_point(vessel.n, x, t, stack, 1))[0]


def evolution_residuals(
    vessel: FiniteVessel, x: float, t: float, h: float = 1e-3
) -> ResidualReport:
    """Centered-difference residuals of all four differential vessel conditions.

    Uses the 5-point stencil (x +- h, t), (x, t +- h), (x, t), with B and
    X from one call each.  The x derivative inside the t-evolution of B is
    taken with the same step.
    """
    _check_step(h)
    A = vessel.A
    xs = np.array([x, x + h, x - h, x, x])
    ts = np.array([t, t, t, t + h, t - h])
    (B, Bxp, Bxm, Btp, Btm), (X, Xxp, Xxm, Xtp, Xtm) = vessel.plain(xs, ts)

    dBx = (Bxp - Bxm) / (2.0 * h)
    dXx = (Xxp - Xxm) / (2.0 * h)
    dBt = (Btp - Btm) / (2.0 * h)
    dXt = (Xtp - Xtm) / (2.0 * h)

    BH = B.conj().T
    r_db = _fro(dBx @ SIGMA1 + A @ B @ SIGMA2 + B @ GAMMA)
    r_dx = _fro(dXx - B @ SIGMA2 @ BH)
    r_dbt = _fro(dBt - 1j * A @ dBx)
    rhs_t = (
        1j * A @ B @ SIGMA2 @ BH
        - 1j * B @ SIGMA2 @ BH @ A.conj().T
        + 1j * B @ GAMMA @ BH
    )
    r_dxt = _fro(dXt - rhs_t)
    return ResidualReport(r_DB=r_db, r_DX=r_dx, r_DBt=r_dbt, r_DXt=r_dxt, h=h)


def inertia(X: np.ndarray):
    """(positive_count, negative_count) of a Hermitian operator's eigenvalues.

    X must be Hermitian to 1e-10 relative to 1 + ||X||.  Eigenvalues with
    |lambda| < 1e-12 * ||X|| are rejected: a (near-)singular operator has
    no robust inertia classification.
    """
    X = np.asarray(X, dtype=complex)
    if _fro(X - X.conj().T) > 1e-10 * (1.0 + _fro(X)):
        raise NumericalConsistencyError("inertia requires a Hermitian operator")
    eigs = np.linalg.eigvalsh(0.5 * (X + X.conj().T))
    scale = max(np.max(np.abs(eigs)), np.finfo(float).tiny)
    if np.any(np.abs(eigs) < 1e-12 * scale):
        raise ClassificationError(
            "near-zero eigenvalue below 1e-12*||X||; inertia undefined"
        )
    return int(np.sum(eigs > 0)), int(np.sum(eigs < 0))


def inertia_label(X: np.ndarray) -> str:
    """'dissipative' for positive-definite X, else 'pontryagin(kappa)'."""
    _, nneg = inertia(X)
    return "dissipative" if nneg == 0 else f"pontryagin({nneg})"


def integrate_standard_construction(
    A: np.ndarray, B0: np.ndarray, X0: np.ndarray, x0: float, grid: np.ndarray, t0: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Tables (B_grid, X_grid) of the standard construction from admissible
    initial data, shapes (len(grid), n, 2) and (len(grid), n, n).

    Solves the translation condition for B with a classical fixed-step
    4th-order one-step integrator, accumulating X(x) = X0 + int B sigma2 B*
    along the way, outward from x0 over the given grid at the time t0.  The
    initial data must satisfy the Lyapunov condition
    A X0 + X0 A* + B0 sigma1 B0* = 0 within 1e-10; the residual is then
    monitored across the whole grid and must stay below 1e-8 relative to
    1 + ||X||, else EvaluationError names the first failing grid point at t0.
    """
    A = np.asarray(A, dtype=complex)
    B0 = np.asarray(B0, dtype=complex)
    X0 = np.asarray(X0, dtype=complex)
    n = A.shape[0]
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise InvalidSpecError("grid must be a strictly increasing 1-D array")
    i0 = int(np.argmin(np.abs(grid - x0)))
    if abs(grid[i0] - x0) > 1e-12 * max(1.0, abs(x0)):
        raise InvalidSpecError("grid must contain the base point x0")
    pre, norm_x0 = _lyapunov_norms(A, None, B0[..., None], X0[..., None])
    if pre[0] > 1e-10 * (1.0 + norm_x0[0]):
        raise InvalidSpecError(
            f"initial data violates the Lyapunov condition (residual {pre[0]:.3e})"
        )

    def rk4_step(B, X, h):
        def f(Bc):  # B' = -(A B sigma2 + B gamma) sigma1, as sigma1^-1 = sigma1
            return -(A @ Bc @ SIGMA2 + Bc @ GAMMA) @ SIGMA1, Bc @ SIGMA2 @ Bc.conj().T

        kB1, kX1 = f(B)
        kB2, kX2 = f(B + 0.5 * h * kB1)
        kB3, kX3 = f(B + 0.5 * h * kB2)
        kB4, kX4 = f(B + h * kB3)
        return (B + (h / 6.0) * (kB1 + 2 * kB2 + 2 * kB3 + kB4),
                X + (h / 6.0) * (kX1 + 2 * kX2 + 2 * kX3 + kX4))

    Bs = np.empty((grid.size, n, 2), dtype=complex)
    Xs = np.empty((grid.size, n, n), dtype=complex)
    Bs[i0], Xs[i0] = B0, X0
    for i in range(i0 + 1, grid.size):
        Bs[i], Xs[i] = rk4_step(Bs[i - 1], Xs[i - 1], grid[i] - grid[i - 1])
    for i in range(i0 - 1, -1, -1):
        Bs[i], Xs[i] = rk4_step(Bs[i + 1], Xs[i + 1], grid[i] - grid[i + 1])

    res, norm_x = _lyapunov_norms(A, None, Bs.transpose(1, 2, 0), Xs.transpose(1, 2, 0))
    _refuse(grid, t0, (~np.isfinite(res) | (res > 1e-8 * (1.0 + norm_x)), EvaluationError,
                       "Lyapunov residual {:.3e} above 1e-8 during construction", res))
    return Bs, Xs
