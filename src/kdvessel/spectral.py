"""Vessels with oscillatory generators: truncated discrete spectra and
quadrature discretizations of the continuous spectrum.

Both families share one trigonometric structure.  With phases
theta_n = k_n x - k_n^3 t and couplings c_n (plain amplitudes b_n for the
discrete family, sqrt(w_i) b(i s_i^2) for the quadrature family):

    A = diag(+i k_n^2)
    B(x,t) row n = c_n * (sin(theta_n)/k_n,  +i cos(theta_n))
    X(x,t)       = I + [ Kker(k_n, k_m; x, t) c_n conj(c_m) ]

with the divided-difference kernel

    Kker(a, b) = [ sin(theta_a)/a * cos(theta_b)
                   - cos(theta_a) * sin(theta_b)/b ] / (a^2 - b^2).

The second column of B carries +i cos: the translation condition
0 = (B sigma1)' + A B sigma2 + B gamma holds only for this sign (with it,
all vessel conditions check out to machine precision).

Each point needs only the n sines and cosines of theta.  Writing
u = sin(theta)/k and c = cos(theta), a pair of well-separated wavenumbers
takes the separable form Kker(a, b) = (u_a c_b - c_a u_b) / (a^2 - b^2),
with 1/(a^2 - b^2) and the couplings folded into one table built once per
vessel.  That form cancels as b -> a, so near-degenerate pairs
(| |a| - |b| | < max(|a|, |b|)/4, the diagonal among them) use the
equivalent cancellation-free form

    Kker(a, b) = [ sin(D m)/D - sin(theta_a + theta_b)/(a + b) ] / (2 a b),
    D = a - b,  m = x - (a^2 + a b + b^2) t,

whose D -> 0 limit reproduces the diagonal value
theta'/(2k^2) - sin(2 theta)/(4 k^3) with theta' = x - 3 k^2 t exactly.
Off the near set |a^2 - b^2| >= max(|a|, |b|) (|a| + |b|)/4, so the
separable form's rounding error stays within a factor of order 1/(1/4)
of the cancellation-free form's.  The build-time Lyapunov self-check
cannot see errors in the near-set branch (see
:func:`core.lyapunov_self_check`).

Truncation caveat: the infinite-dimensional fixed-vector identity
X(x,0) v = v for v_n = c_n sin(k_n x)/k_n does NOT survive truncation.
X(x,0) - I is the Gram matrix int_0^x w(y) w(y)* dy of
w_n(y) = c_n sin(k_n y)/k_n, a positive-semidefinite perturbation that is
nonzero whenever x != 0, so X(x,0) v = v + (Gram) v != v; already the 1x1
case X = 1 + |c|^2 (x/(2k^2) - sin(2kx)/(4k^3)) refutes the identity.
:func:`fixed_vector_residual` measures the violation rather than assuming
it away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import core
from .exceptions import InvalidSpecError

__all__ = [
    "DiscreteSpectrum",
    "QuadratureSpectrum",
    "gauss_legendre_spectrum",
    "build_discrete_vessel",
    "build_quadrature_vessel",
    "fixed_vector_residual",
]

# Pairs with | |k_a| - |k_b| | < _NEAR max(|k_a|, |k_b|), the diagonal
# among them, are near-degenerate (see the module docstring).  |k| rather
# than k, since Kker is even in each wavenumber and k_a ~ -k_b cancels
# in k_a^2 - k_b^2 too.
_NEAR = 0.25


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Truncated discrete spectrum k_n with complex amplitudes b_n.

    ``flavor`` is "periodic" (requires k_n = 2 pi N_n / period for integers
    N_n) or "almost_periodic".  ``tail_bound`` reports max |b_n|^2 |k_n|,
    the summability proxy of the truncated tail.
    """

    k: np.ndarray
    b: np.ndarray
    flavor: str = "almost_periodic"
    period: Optional[float] = None

    def __post_init__(self):
        k = np.atleast_1d(np.asarray(self.k, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=complex))
        if k.shape != b.shape or k.ndim != 1:
            raise InvalidSpecError("k and b must be 1-D sequences of equal length")
        if np.any(k == 0):
            raise InvalidSpecError("wavenumbers must be nonzero")
        k2 = k**2
        if k.size > 1:
            gaps = np.abs(k2[:, None] - k2[None, :]) + np.diag(np.full(k.size, np.inf))
            if gaps.min() <= 1e-12 * k2.max():
                raise InvalidSpecError(
                    "squared wavenumbers must be pairwise distinct (kernel denominator)"
                )
        if self.flavor == "periodic":
            if self.period is None or self.period <= 0:
                raise InvalidSpecError("periodic flavor requires a positive period")
            ratios = k * self.period / (2.0 * np.pi)
            if np.any(np.abs(ratios - np.round(ratios)) > 1e-12 * np.maximum(1.0, np.abs(ratios))):
                raise InvalidSpecError(
                    "periodic flavor requires k_n = 2 pi N_n / period with integer N_n"
                )
        elif self.flavor != "almost_periodic":
            raise InvalidSpecError("flavor must be 'periodic' or 'almost_periodic'")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "b", b)
        self.k.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def n(self) -> int:
        return self.k.size

    @property
    def tail_bound(self) -> float:
        return float(np.max(np.abs(self.b) ** 2 * np.abs(self.k)))


@dataclass(frozen=True)
class QuadratureSpectrum:
    """Quadrature rule on the continuous spectrum s in (0, s_max].

    ``density`` maps the node value s to the complex spectral density
    b(i s^2).  Nodes must be strictly increasing and positive, weights
    positive.
    """

    nodes: np.ndarray
    weights: np.ndarray
    density: Callable[[np.ndarray], np.ndarray] = field(compare=False)

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if s.shape != w.shape or s.ndim != 1:
            raise InvalidSpecError("nodes and weights must be 1-D of equal length")
        if np.any(s <= 0) or np.any(np.diff(s) <= 0):
            raise InvalidSpecError("nodes must be positive and strictly increasing")
        if np.any(w <= 0):
            raise InvalidSpecError("weights must be positive")
        object.__setattr__(self, "nodes", s)
        object.__setattr__(self, "weights", w)
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.nodes.size

    def couplings(self) -> np.ndarray:
        """sqrt(w_i) b(i s_i^2): the L2 inner product folded into B."""
        return np.sqrt(self.weights) * np.asarray(
            self.density(self.nodes), dtype=complex
        )


def gauss_legendre_spectrum(
    s_max: float, n_nodes: int, density: Callable[[np.ndarray], np.ndarray]
) -> QuadratureSpectrum:
    """Gauss-Legendre rule on [0, s_max]."""
    if s_max <= 0 or n_nodes < 1:
        raise InvalidSpecError("s_max must be positive and n_nodes >= 1")
    xi, w = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * s_max
    return QuadratureSpectrum(nodes=half * (xi + 1.0), weights=half * w, density=density)


class _TrigTables(NamedTuple):
    """Per-vessel constants of :func:`trig_kernel` for couplings C.

    ``W`` = C_ab / (k_a^2 - k_b^2) on far pairs and 0 on near ones.  The
    near pairs a <= b sit at rows ``rows``, columns ``cols`` with their
    constants a^2 + a b + b^2, a - b, a + b, 2 a b and couplings
    ``C_near``, halved on the diagonal.
    """

    k3: np.ndarray
    W: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    quad: np.ndarray
    diff: np.ndarray
    plus: np.ndarray
    twice_ab: np.ndarray
    C_near: np.ndarray


def _trig_tables(k: np.ndarray, C: np.ndarray) -> _TrigTables:
    a, b = k[:, None], k[None, :]
    absk = np.abs(k)
    near = (np.abs(absk[:, None] - absk[None, :])
            < _NEAR * np.maximum(absk[:, None], absk[None, :]))
    # (a - b)(a + b): each factor rounded once, so no cancellation in k^2
    W = np.divide(C, (a - b) * (a + b), out=np.zeros_like(C), where=~near)
    rows, cols = np.nonzero(np.triu(near))
    ka, kb = k[rows], k[cols]
    return _TrigTables(
        k3=k**3, W=W, rows=rows, cols=cols,
        quad=ka * ka + ka * kb + kb * kb, diff=ka - kb, plus=ka + kb,
        twice_ab=2.0 * ka * kb, C_near=C[rows, cols] * np.where(rows == cols, 0.5, 1.0),
    )


def trig_kernel(k: np.ndarray, x, t, tables: Optional[_TrigTables] = None) -> np.ndarray:
    """Kernel matrix Kker(k_n, k_m; x, t) C_nm of a trigonometric vessel.

    ``tables`` (built once per vessel from the same k and the couplings
    C) supplies C; without it C = 1.  Each point takes n sines and n
    cosines: far pairs come from the separable divided difference
    (u_a c_b - c_a u_b) W_ab with u = sin(theta)/k, c = cos(theta); near
    pairs, the diagonal among them, from the cancellation-free form with
    its exact k_a -> k_b limit.  The result is exactly symmetric
    (Hermitian for complex C).  Broadcasts over arrays of points: shape
    (..., n, n).
    """
    tab = _trig_tables(k, np.ones((k.size, k.size))) if tables is None else tables
    n = k.size
    x = np.asarray(x, dtype=float)[..., None]
    t = np.asarray(t, dtype=float)[..., None]
    theta = k * x - tab.k3 * t
    shape = theta.shape[:-1] + (n, n)
    theta = theta.reshape(-1, n)
    u = np.sin(theta) / k
    c = np.cos(theta)
    # near pairs a <= b: the cancellation-free form
    #   [sin(D m)/D - sin(theta_a + theta_b)/(a + b)] / (2 a b),
    #   D = a - b,  m = x - (a^2 + a b + b^2) t,  sin(D m)/D exact at D = 0
    m = (x - tab.quad * t).reshape(-1, tab.quad.size)
    diff_term = m * np.sinc(tab.diff * m / np.pi)
    sum_term = np.sin(theta[:, tab.rows] + theta[:, tab.cols]) / tab.plus
    near = (diff_term - sum_term) / tab.twice_ab

    # far pairs: E + E* with E_ab = u_a c_b W_ab is (u_a c_b - c_a u_b) W_ab,
    # since W_ba = -conj(W_ab).  W vanishes on near pairs, so E takes their
    # values on a <= b (half on the diagonal) and 0 below.
    E = u[:, :, None] * c[:, None, :] * tab.W
    E[:, tab.rows, tab.cols] = near * tab.C_near
    return np.add(E, E.swapaxes(1, 2).conj(), order="C").reshape(shape)


def _build_trig_vessel(
    k: np.ndarray, c: np.ndarray, kind: str, metadata: dict
) -> core.FiniteVessel:
    n = k.size
    A = np.diag(1j * k**2)
    C = np.outer(c, c.conj())
    if not C.imag.any():  # real couplings: X is real symmetric
        C = C.real
    tables = _trig_tables(k, C)
    k3 = k**3
    diag = np.arange(n)

    def B_eval(x, t):
        th = np.multiply.outer(x, k) - np.multiply.outer(t, k3)
        B = np.empty(th.shape + (2,), dtype=complex)
        B[..., 0] = c * np.sin(th) / k
        # +i cos: forced by the translation condition (see module docstring)
        B[..., 1] = 1j * c * np.cos(th)
        return B

    def X_eval(x, t):
        X = trig_kernel(k, x, t, tables)
        X[..., diag, diag] += 1.0
        return X

    vessel = core.FiniteVessel(
        n=n, A=A, B_eval=B_eval, X_eval=X_eval,
        X0=np.eye(n, dtype=complex), kind=kind, metadata=metadata,
    )
    core.lyapunov_self_check(vessel)
    return vessel


def build_discrete_vessel(spec: DiscreteSpectrum) -> core.FiniteVessel:
    """Trigonometric vessel on the truncated discrete spectrum; X0 = I.

    Checked by :func:`core.lyapunov_self_check` before it is returned.
    """
    return _build_trig_vessel(
        spec.k, spec.b, "discrete",
        {"spec": spec, "generators": spec.k, "couplings": spec.b,
         "tail_bound": spec.tail_bound},
    )


def build_quadrature_vessel(spec: QuadratureSpectrum) -> core.FiniteVessel:
    """Nystrom discretization of the continuous-spectrum vessel; X0 = I.

    Folding sqrt(weights) into B is a diagonal congruence, so X stays
    Hermitian and the vessel identities hold node-wise exactly.  Checked
    by :func:`core.lyapunov_self_check` before it is returned.
    """
    c = spec.couplings()
    return _build_trig_vessel(
        spec.nodes, c, "quadrature",
        {"spec": spec, "generators": spec.nodes, "couplings": c},
    )


def fixed_vector_residual(vessel: core.FiniteVessel, x):
    """|| X(x,0) v - v || / ||v|| for the odd seed v_n = c_n sin(k_n x)/k_n.

    v is exactly the first column of B(x, 0) (quadrature weights already
    folded in).  Returns 0 for v = 0 by convention.  The idealized
    infinite-dimensional identity X v = v fails for every truncation (see
    module docstring); this measures the violation.  Broadcasts over x.
    """
    if vessel.kind not in ("discrete", "quadrature"):
        raise InvalidSpecError("fixed_vector_residual applies to discrete/quadrature vessels")

    def stack(xs, ts):
        v = vessel.B(xs, ts)[..., 0]
        nv = np.linalg.norm(v, axis=-1)
        r = np.linalg.norm((vessel.X(xs, ts) @ v[..., None])[..., 0] - v, axis=-1)
        return np.divide(r, nv, out=np.zeros_like(nv), where=nv > 0)

    return core._floats(core._per_point(vessel.n, x, 0.0, stack, 1))[0]

