"""Closed-form n-soliton vessels and analytic potential evaluation.

The soliton vessel on C^n is generated by mutually distinct positive
wavenumbers k_j and nonzero complex amplitudes b_j:

    A = diag(-i k_j^2)
    B(x,t) row j = e^{k_j x + k_j^3 t} b_j * (1, i k_j)
    X(x,t)      = I + [ e^{(k_i+k_j)x + (k_i^3+k_j^3)t} b_i conj(b_j) / (k_i+k_j) ]

X is I plus a positive-semidefinite Gram matrix of decaying exponentials,
so every soliton vessel is dissipative and tau = det X > 1.  Only |b_j|
enters tau; the alternative normalization c_j = |b_j|^2 / (2 k_j) is the
coefficient of e^{2 k_j x + 2 k_j^3 t} in tau.

The vessel's one operator source (``core.FiniteVessel.operators``) is
the scaled pair X = D M D with D = diag(max(1, e^{k x + k^3 t})), so M and
D^-1 B stay finite at every phase; the plain B and X above are derived
from it.  The build's self-check runs on the pair, so solitons of any k
build, and core's evaluators and the transfer routines read the pair on
arbitrarily wide grids (tau = inf past the float range) with core's
checks on M.  The pair is assembled generator-major, with the points on
the last axis so that every elementwise pass runs over the points, and
``operators`` returns it as assembled, in the contract's points-last
layout, with the Gram matrix formed once per vessel.  :func:`q_soliton`
is the q-only trace formula on the same M, solved in core's stacks by
core's one factorization entry, ``core._factor``.  Its gates
are masks refused once per stack, as core's are: where |b|^2 overflows
the Gram matrix, or close wavenumbers make M singular in floating point,
it raises EvaluationError at the first such point in C order.  It has no
conditioning gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .exceptions import EvaluationError, InvalidSpecError

__all__ = [
    "SolitonSpec",
    "build_soliton",
    "tau_cauchy_3",
    "q_soliton",
    "one_soliton_reference",
]


@dataclass(frozen=True)
class SolitonSpec:
    """Wavenumbers and amplitudes of an n-soliton construction."""

    k: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        k = np.atleast_1d(np.asarray(self.k, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=complex))
        if k.shape != b.shape or k.ndim != 1:
            raise InvalidSpecError("k and b must be 1-D sequences of equal length")
        if np.any(k <= 0):
            raise InvalidSpecError("wavenumbers must be positive")
        if k.size > 1:
            gaps = np.abs(k[:, None] - k[None, :]) + np.diag(np.full(k.size, np.inf))
            if gaps.min() <= 1e-12 * k.max():
                raise InvalidSpecError("wavenumbers must be pairwise distinct")
        if np.any(b == 0):
            raise InvalidSpecError("amplitudes must be nonzero")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "b", b)
        self.k.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def n(self) -> int:
        return self.k.size

    @property
    def c(self) -> np.ndarray:
        """Tau-normalized amplitudes c_j = |b_j|^2 / (2 k_j)."""
        return np.abs(self.b) ** 2 / (2.0 * self.k)

    @classmethod
    def from_c(cls, k, c) -> "SolitonSpec":
        """Build from the tau-normalized amplitudes (b_j = sqrt(2 k_j c_j))."""
        k = np.atleast_1d(np.asarray(k, dtype=float))
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if np.any(c <= 0):
            raise InvalidSpecError("c amplitudes must be positive")
        return cls(k=k, b=np.sqrt(2.0 * k * c).astype(complex))


def _gram(spec: SolitonSpec) -> np.ndarray:
    # Cauchy-type Gram matrix b_i conj(b_j) / (k_i + k_j); PSD, and real
    # when the products b_i conj(b_j) are.  The products of a complex b
    # round apart from Hermitian (the diagonal keeps imaginary parts near
    # 1e-17), so P is averaged with P* once, halves first so that no finite
    # P overflows; that leaves a real P as it is and makes M exactly
    # Hermitian at every point.  An overflow passes
    # through as inf, which core.FiniteVessel names at its point (the
    # complex division of an inf leaves a NaN in the imaginary part that a
    # real G drops).
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.outer(spec.b, spec.b.conj())
        P = 0.5 * P + 0.5 * P.conj().T
        G = P / (spec.k[:, None] + spec.k[None, :])
    return G if P.imag.any() else G.real


def build_soliton(spec: SolitonSpec) -> core.FiniteVessel:
    """Closed-form soliton vessel with X0 = I, checked by
    :func:`core.lyapunov_self_check` before it is returned.

    Its one operator source is the scaled pair of :func:`_scaled_last`,
    points last as assembled, which stays finite at every phase, so
    solitons of any k build; the plain B and X derive from it.
    """
    k, n, G = spec.k, spec.n, _gram(spec)
    row = np.stack([np.ones(n), 1j * k], axis=-1)[..., None]

    def operators(x, t):
        M, w, log_d = _scaled_last(spec, G, x, t)
        return w[:, None] * row, M, log_d  # D^-1 B row j = w_j (1, i k_j)

    vessel = core.FiniteVessel(
        n=n,
        A=np.diag(-1j * k**2),
        operators=operators,
        X0=np.eye(n, dtype=complex),
        kind="soliton",
        metadata={"spec": spec, "generators": k, "couplings": spec.b},
    )
    core.lyapunov_self_check(vessel)
    return vessel


def tau_cauchy_3(spec: SolitonSpec, x, t):
    """Closed-form tau of the 3-soliton via the Cauchy determinant expansion.

    tau = 1 + sum_i c_i E_i + sum_{i<j} c_i c_j a_ij E_i E_j
            + c_1 c_2 c_3 a_12 a_13 a_23 E_1 E_2 E_3,
    with E_i = e^{2 k_i x + 2 k_i^3 t} and a_ij = (k_i-k_j)^2/(k_i+k_j)^2.
    """
    if spec.n != 3:
        raise InvalidSpecError("the Cauchy closed form is implemented for n = 3 only")
    k, c = spec.k, spec.c
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    E = [np.exp(2.0 * k[i] * x + 2.0 * k[i] ** 3 * t) for i in range(3)]
    a = {(i, j): (k[i] - k[j]) ** 2 / (k[i] + k[j]) ** 2 for i in range(3) for j in range(3) if i < j}
    out = 1.0 + c[0] * E[0] + c[1] * E[1] + c[2] * E[2]
    out = out + c[0] * c[1] * a[(0, 1)] * E[0] * E[1]
    out = out + c[0] * c[2] * a[(0, 2)] * E[0] * E[2]
    out = out + c[1] * c[2] * a[(1, 2)] * E[1] * E[2]
    out = out + c[0] * c[1] * c[2] * a[(0, 1)] * a[(0, 2)] * a[(1, 2)] * E[0] * E[1] * E[2]
    return out if out.ndim else float(out)


def _scaled_last(spec: SolitonSpec, G, x, t):
    """X = D M D at the m flat points x, t, with M finite at any phase, from
    the Gram matrix G = _gram(spec): M (n, n, m), w = e b (n, m) and log d
    (n, m), one log d per generator, with the points last.

    With d = max(1, e^phi) and e = min(1, e^phi) per generator,
    M = D^-2 + diag(e) G diag(e) and X = I + diag(e^phi) G diag(e^phi)
    = D M D; M equals X where every phase is <= 0, is real for real
    amplitudes, and a generator whose e^phi leaves the float range in
    either direction decouples in M.  Every pass runs generator-major, with
    the generator axes first and the points last, so its inner loop runs
    over the points, not over the n generators.
    """
    k, b, n = spec.k, spec.b, spec.n
    phi = np.multiply.outer(k, x) + np.multiply.outer(k**3, t)
    log_d = np.maximum(phi, 0.0)
    e = np.exp(np.minimum(phi, 0.0))
    M = np.multiply(e[:, None], e, dtype=G.dtype)
    M *= G[..., None]  # M[i, j] = e_i e_j G_ij; in place, as a new array took 5x as long
    M[np.arange(n), np.arange(n)] += np.exp(-2.0 * log_d)
    return M, e * (b if b.imag.any() else b.real)[:, None], log_d


def _re_dot(a, b):
    """Re sum_i conj(a_i) b_i over the generator axis (first) of points-last
    arrays, from real products added one generator row at a time, so the
    values do not depend on the stack size (numpy's own sum switches to
    pairwise summation on a one-point stack)."""
    p = a.real * b.real
    if np.iscomplexobj(a) and np.iscomplexobj(b):
        p += a.imag * b.imag
    total = p[0]
    for row in p[1:]:
        total = total + row
    return total


def q_soliton(spec: SolitonSpec, x, t):
    """KdV field q = -2 d^2/dx^2 log tau, evaluated analytically.

    With X' = B sigma2 B* and X'' = K X' + X' K, K = diag(k_j), the trace
    formula q = -2 [tr(X^-1 X'') - tr((X^-1 X')^2)] reduces, for
    v = M^-1 w with (M, w) of :func:`_scaled_last`, to
    q = -2 (2 Re(v* K w) - (w* v)^2).  One solve per point, in core's
    stacks, by ``core._factor`` on the points-last pair as assembled;
    broadcasts over x, t.  The two sums run over the generator axis of
    points-last arrays.  EvaluationError at the first point in C order
    where M or w overflows, or M has a zero pivot.
    """
    n, G = spec.n, _gram(spec)
    k = spec.k[:, None]

    def stack(xs, ts):
        with np.errstate(all="ignore"):  # the flagged points may not be finite
            M, w, _ = _scaled_last(spec, G, xs, ts)
            overflow = ~np.isfinite(M).all(axis=(0, 1))  # w = e b is finite wherever M is
            if overflow.any():
                M[:, :, overflow] = np.eye(n)[..., None]
                w[:, overflow] = 0.0
            sign, _, v = core._factor(M, w[:, None])
            v = v[:, 0]
            q = -2.0 * (2.0 * _re_dot(v * k, w) - _re_dot(w, v) ** 2)
        core._refuse(xs, ts, (overflow, EvaluationError, "Gram operator X overflowed"),
                     (sign == 0, *core._SINGULAR))
        return q

    return core._floats(core._per_point(n, x, t, stack, 1))[0]


def one_soliton_reference(k: float, c: float, x, t):
    """Independent closed form q(x,t) = -2 k^2 sech^2(k x + k^3 t + ln(c)/2).

    Evaluated in the overflow-safe form -8 k^2 s (1 - s) with the logistic
    s = 1 / (1 + e^{-2 xi}); broadcasts over x, t.
    """
    if k <= 0 or c <= 0:
        raise InvalidSpecError("k and c must be positive")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    xi = k * x + k**3 * t + 0.5 * np.log(c)
    th = np.tanh(xi)  # s(1-s) = (1+tanh)(1-tanh)/4, overflow-free
    out = -2.0 * k**2 * (1.0 + th) * (1.0 - th)
    return out if out.ndim else float(out)
