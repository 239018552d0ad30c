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

For phases k x + k^3 t beyond the overflow range the evaluators switch to
a row/column-scaled form that factors the exponentials out of X, so beta,
q and log-tau remain evaluable on arbitrarily wide grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .exceptions import InvalidSpecError

__all__ = [
    "SolitonSpec",
    "build_soliton",
    "tau_cauchy_3",
    "beta_soliton",
    "q_soliton",
    "log_tau_soliton",
    "fields_soliton",
    "one_soliton_reference",
]

# Switch to the scaled assembly once the plain form's absolute error
# (~ eps * e^{2 phi_max} from conditioning) approaches the 1e-8 tolerance
# the far-field identities are held to; 8 keeps both branches accurate.
_PHASE_SWITCH = 8.0
# In the scaled system a generator with phase phi enters through
# e^{-2 phi}; clamping phi here caps that at ~e^{340} (finite, and the
# component decouples identically to dropping it: its e^{2 phi} < 1e-16).
_PHASE_CLAMP = -170.0


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
    # when the amplitudes are
    G = np.outer(spec.b, spec.b.conj()) / (spec.k[:, None] + spec.k[None, :])
    return G if G.imag.any() else G.real


def build_soliton(
    spec: SolitonSpec, self_check: bool = True, check_seed: int = 0
) -> core.FiniteVessel:
    """Closed-form soliton vessel with X0 = I.

    B and X broadcast over arrays of points.  With ``self_check`` the
    Lyapunov residual is verified below 1e-12 at 50 random points of
    [-2, 2] x [-0.5, 0.5].
    """
    k, b, n = spec.k, spec.b, spec.n
    A = np.diag(-1j * k**2)
    G = _gram(spec)
    eye = np.eye(n)
    row = np.stack([np.ones(n), 1j * k], axis=-1)  # B row j = e^phi_j b_j (1, i k_j)
    k3 = k**3

    def phases(x, t):
        return np.multiply.outer(x, k) + np.multiply.outer(t, k3)

    def B_eval(x, t):
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.exp(phases(x, t)) * b)[..., None] * row

    def X_eval(x, t):
        # overflow deliberately passes through as inf: FiniteVessel.X turns
        # it into an EvaluationError pointing at the log-domain routines
        with np.errstate(over="ignore", invalid="ignore"):
            E = np.exp(phases(x, t))
            return eye + E[..., :, None] * E[..., None, :] * G

    vessel = core.FiniteVessel(
        n=n,
        A=A,
        B_eval=B_eval,
        X_eval=X_eval,
        X0=np.eye(n, dtype=complex),
        kind="soliton",
        metadata={"spec": spec, "generators": k, "couplings": b},
    )
    if self_check:
        core.lyapunov_self_check(vessel, check_seed)
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


def _trace_terms(spec: SolitonSpec, x, t):
    """(beta, q) from the Gram-resolvent trace formulas, broadcast over x, t.

    Plain regime:    u = X^-1 b1 with b1 = e^phi b,
                     beta = -Re(b1* u),  q = -2 (2 Re(u* K b1) - (b1* u)^2).
    Scaled regime:   factor diag(e^phi) out of X; with
                     P = (G + diag(e^{-2 phi}))^-1 and v = P b the same
                     traces become beta = -Re(b* v),
                     q = -2 (2 Re(v* K b) - (b* v)^2).
    In the scaled system phi is clamped below at _PHASE_CLAMP, which
    decouples deep-tail generators exactly like dropping them.
    """
    k, b, n = spec.k, spec.b, spec.n
    G = _gram(spec)
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    x_b, t_b = np.broadcast_arrays(x, t)
    shape = x_b.shape
    xf = x_b.reshape(-1)
    tf = t_b.reshape(-1)
    phi = k[:, None] * xf[None, :] + (k**3)[:, None] * tf[None, :]  # (n, m)
    beta = np.empty(xf.shape)
    q = np.empty(xf.shape)

    plain = phi.max(axis=0) <= _PHASE_SWITCH
    if np.any(plain):
        ph = phi[:, plain]
        E = np.exp(ph)  # (n, mp)
        b1 = (E * b[:, None]).T  # (mp, n)
        X = np.eye(n, dtype=complex)[None, :, :] + (
            E.T[:, :, None] * E.T[:, None, :]
        ) * G[None, :, :]
        u = np.linalg.solve(X, b1[..., None])[..., 0]
        bu = np.einsum("mi,mi->m", b1.conj(), u).real
        ukb = np.einsum("mi,i,mi->m", u.conj(), k, b1)
        beta[plain] = -bu
        q[plain] = -2.0 * (2.0 * ukb.real - bu**2)

    scaled = ~plain
    if np.any(scaled):
        d2 = np.exp(-2.0 * np.maximum(phi[:, scaled], _PHASE_CLAMP)).T  # (ms, n)
        M = np.broadcast_to(G, (d2.shape[0], n, n)).copy()
        M[:, np.arange(n), np.arange(n)] += d2
        v = np.linalg.solve(M, np.broadcast_to(b, (d2.shape[0], n))[..., None])[..., 0]
        bv = np.einsum("i,mi->m", b.conj(), v).real
        vkb = np.einsum("mi,i->m", v.conj(), k * b)
        beta[scaled] = -bv
        q[scaled] = -2.0 * (2.0 * vkb.real - bv**2)
    return beta.reshape(shape), q.reshape(shape)


def beta_soliton(spec: SolitonSpec, x, t):
    """beta = -tau'/tau of the soliton vessel; broadcasts over x, t."""
    beta, _ = _trace_terms(spec, x, t)
    return beta if beta.ndim else float(beta)


def q_soliton(spec: SolitonSpec, x, t):
    """KdV field q = -2 d^2/dx^2 log tau, evaluated analytically.

    Uses q = -2 [tr(X^-1 X'') - tr((X^-1 X')^2)] with X' = B sigma2 B* and
    X'' = K X' + X' K, K = diag(k_j); broadcasts over x, t.
    """
    _, q = _trace_terms(spec, x, t)
    return q if q.ndim else float(q)


def log_tau_soliton(spec: SolitonSpec, x, t):
    """(log tau, sign=+1) stable against exponential overflow; broadcasts over x, t.

    In the scaled regime det X = e^{2 sum phi} det(G + diag(e^{-2 phi}));
    clamping phi below at _PHASE_CLAMP leaves each deep-tail generator
    contributing exactly log 1 = 0.
    """
    k, n = spec.k, spec.n
    G = _gram(spec)
    x_b, t_b = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    phi = np.multiply.outer(x_b, k) + np.multiply.outer(t_b, k**3)  # (..., n)
    logabs = np.empty(x_b.shape)
    sign = np.empty(x_b.shape)

    plain = phi.max(axis=-1) <= _PHASE_SWITCH
    E = np.exp(phi[plain])  # (mp, n)
    X = np.eye(n) + E[:, :, None] * E[:, None, :] * G
    sign_p, logabs[plain] = np.linalg.slogdet(X)
    sign[plain] = np.real(sign_p)

    phc = np.maximum(phi[~plain], _PHASE_CLAMP)  # (ms, n)
    M = G + np.exp(-2.0 * phc)[:, :, None] * np.eye(n)
    sign_s, logabs_s = np.linalg.slogdet(M)
    logabs[~plain] = 2.0 * phc.sum(axis=-1) + logabs_s
    sign[~plain] = np.real(sign_s)
    if logabs.ndim:
        return logabs, sign
    return float(logabs), float(sign)


def fields_soliton(spec: SolitonSpec, x, t) -> core.FieldValues:
    """beta, beta' = q/2 and log tau with its sign on arrays of points.

    One pass of the trace formulas for beta and q plus the scaled log tau,
    so every value stays finite on arbitrarily wide grids; ``tau`` of the
    result is inf where it passes the float range.
    """
    beta, q = _trace_terms(spec, x, t)
    logabs, sign = log_tau_soliton(spec, x, t)
    return core.FieldValues(beta=beta, beta_prime=0.5 * q,
                            log_abs_tau=np.asarray(logabs), tau_sign=np.asarray(sign))


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
