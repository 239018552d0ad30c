"""Coefficient evolution on a symmetric wavenumber lattice.

The squared coefficients p_N(t) = |b_N(t)|^2 on a lattice
Gamma = {m k0 : m = -M..-1, 1..M} evolve by

    dp_N/dt = -(3/2) k_N^2 sum_{(n,m): k_n + k_m = k_N}
              p_n p_m / (k_n k_m) cos(6 k_n k_m k_N t),

an ordered-pair sum ((n, m) and (m, n) both count).  They are the
coefficients of the profile beta(x,t) = sum_N p_N(t) sin^2(k_N x - k_N^3 t)
/ k_N^2; this module evolves the coefficients only.

A finite lattice cannot satisfy Gamma + Gamma = Gamma: pairs whose sum
falls outside are dropped and the lattice reports the dropped fraction.
Pair matching uses exact integer index arithmetic, never float comparison.

Conservation caveat: the constraint sum_N (dp_N/dt) / k_N^2 = 0 relies on
a three-term cancellation over zero-sum triples {a, b, -(a+b)} that only
closes on the infinite lattice.  On a truncation it holds at t = 0 for
constant p (e.g. the {+-1, +-2} lattice gives dp/dt = (3/2, -6) whose
weighted sum cancels), but the flow immediately drives p_1 != p_2 and the
residual grows like -3 cos(12 t) p_1 (p_1 - p_2).  The integrator
therefore monitors the residual and rejects steps above
``conservation_tol`` (default 1e-9, per the stated contract); pass
``conservation_tol=float("inf")`` to integrate anyway and inspect the
recorded residuals.  Lattice symmetry p_N = p_{-N}, by contrast, is
preserved exactly by the flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConservationError,
    InvalidSpecError,
    ModelBreakdownError,
    NumericalConsistencyError,
)

__all__ = ["Lattice", "make_lattice", "BTrajectory", "dbnt_rhs", "integrate_b"]


def _position(labels, M):
    """Storage positions of nonzero labels: m + M for m < 0, m + M - 1 for m > 0."""
    return labels + M - (labels > 0)


@dataclass(frozen=True)
class Lattice:
    """Symmetric truncated lattice {m k0 : m in -M..-1, 1..M}.

    ``indices`` are the integer labels m in storage order (label m sits at
    position m + M for m < 0 and m + M - 1 for m > 0); ``members`` the
    wavenumbers.  The kept ordered pairs are three read-only flat int arrays
    of storage positions: pair j sends (``pair_a[j]``, ``pair_b[j]``) to
    ``pair_out[j]``.  They run output-major, and within one output in
    lexicographic order of a; the partner label b = m_out - a is kept when
    b != 0 and |b| <= M.  Storage order is symmetric, so the reversed pair
    list is the mirrored one: pair P-1-j is pair j with every label negated.
    ``pair_kk`` = k_a k_b is the per-pair product of the right-hand side
    and ``rhs_scale`` = -1.5 k_N^2 its per-output factor.  The frequencies
    6 k_a k_b k_out repeat across pairs and, by the mirror, come in
    opposite pairs, so the lattice keeps a table of their magnitudes:
    ``omega`` holds the sorted distinct |6 k_a k_b k_out| (at M = 48, 1,002
    values for k0 = 1.041 and 521 for k0 = 1, against 6,768 pairs) and
    ``pair_omega_index[j]`` the position of pair j's in it.
    ``omega[pair_omega_index]`` is bitwise |6.0 * k_a * k_b * k_out|
    multiplied left to right.  The table is sorted from the first half of
    the pairs and mirrored onto the second.  Every product is formed once
    per lattice.
    """

    k0: float
    M: int
    indices: np.ndarray = field(init=False, compare=False)
    members: np.ndarray = field(init=False, compare=False)
    pair_out: np.ndarray = field(init=False, compare=False)
    pair_a: np.ndarray = field(init=False, compare=False)
    pair_b: np.ndarray = field(init=False, compare=False)
    pair_kk: np.ndarray = field(init=False, compare=False)
    omega: np.ndarray = field(init=False, compare=False)
    pair_omega_index: np.ndarray = field(init=False, compare=False)
    rhs_scale: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if self.k0 <= 0 or not isinstance(self.M, (int, np.integer)) or self.M < 1:
            raise InvalidSpecError("need k0 > 0 and an integer M >= 1")
        M = self.M
        idx = np.concatenate([np.arange(-M, 0), np.arange(1, M + 1)])
        k = self.k0 * idx.astype(float)
        partner = idx[:, None] - idx[None, :]  # b = m_out - a, output-major
        kept = (partner != 0) & (np.abs(partner) <= M)
        out, a = np.nonzero(kept)
        b = _position(partner[kept], M)
        half = slice(out.size // 2)  # pair P-1-j mirrors pair j: same |frequency|
        omega, index = np.unique(np.abs(6.0 * k[a[half]] * k[b[half]] * k[out[half]]),
                                 return_inverse=True)
        arrays = {"indices": idx, "members": k, "pair_out": out, "pair_a": a,
                  "pair_b": b, "pair_kk": k[a] * k[b], "omega": omega,
                  "pair_omega_index": np.concatenate([index, index[::-1]]),
                  "rhs_scale": -1.5 * k**2}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.indices.size

    @property
    def kept_pairs(self) -> int:
        """Ordered label pairs whose nonzero sum lies on the lattice."""
        return self.pair_out.size

    @property
    def dropped_pairs(self) -> int:
        """Ordered label pairs whose sum falls off the lattice (zero sums,
        the 2M pairs (a, -a), count as neither kept nor dropped)."""
        return self.size**2 - self.size - self.kept_pairs

    @property
    def dropped_fraction(self) -> float:
        total = self.kept_pairs + self.dropped_pairs
        return self.dropped_pairs / total if total else 0.0

    def mirror_permutation(self) -> np.ndarray:
        """Storage positions of -k_N for each position of k_N."""
        return _position(-self.indices, self.M)


def make_lattice(k0: float, M: int) -> Lattice:
    """Symmetric lattice with additive-closure bookkeeping."""
    return Lattice(k0=k0, M=M)


def _check_p(lattice: Lattice, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (lattice.size,):
        raise InvalidSpecError(
            f"p must have one entry per lattice member ({lattice.size}), got {p.shape}"
        )
    return p


def _cosines(lattice: Lattice, t: float) -> np.ndarray:
    """cos(6 k_a k_b k_out t) per pair, one cosine per distinct |frequency|.

    (-w) t is -(w t) exactly and np.cos is even bit for bit, so each
    gathered value is np.cos of the pair's signed argument.
    """
    return np.cos(lattice.omega * t)[lattice.pair_omega_index]


def _pair_sum(lattice: Lattice, p: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """dp_N/dt at p from the per-pair cosines of :func:`_cosines`.

    Every kept pair's term p_a p_b / (k_a k_b) cos is formed in one
    vectorized expression and accumulated by ``np.add.at``, which adds
    unbuffered in index order from 0.0, so each output sums its pairs in
    lexicographic order, one at a time.
    """
    term = p[lattice.pair_a] * p[lattice.pair_b] / lattice.pair_kk * cos
    acc = np.zeros(lattice.size)
    np.add.at(acc, lattice.pair_out, term)
    return lattice.rhs_scale * acc


def dbnt_rhs(lattice: Lattice, p, t: float) -> np.ndarray:
    """dp_N/dt from the ordered-pair interaction sum; truncation-dropped
    pairs contribute nothing.

    One stage of the integrator's kernel: the cosines come from the
    lattice's |frequency| table (:func:`_cosines`), each bitwise the
    cosine of the argument the plain loop forms, and the pair sum
    (:func:`_pair_sum`) adds each output's terms in lexicographic order.
    The result is bitwise that of the plain per-pair loop
    (``coefficient_evolution.rhs_vs_bruteforce``).
    """
    return _pair_sum(lattice, _check_p(lattice, p), _cosines(lattice, t))


@dataclass(frozen=True)
class BTrajectory:
    """Time samples of the squared coefficients, one row per time."""

    times: np.ndarray
    p: np.ndarray  # (len(times), lattice.size)
    conservation: np.ndarray  # recorded |sum dp/k^2| at each sample

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "conservation", np.asarray(self.conservation, dtype=float))


def integrate_b(
    lattice: Lattice,
    p0,
    t_grid,
    conservation_tol: float = 1e-9,
) -> BTrajectory:
    """Classical fixed-step RK4 integration of the coefficient system.

    Per accepted step the monitors check lattice symmetry p_N = p_{-N} (to
    1e-12), nonnegativity (breakdown below -1e-12), and the
    instantaneous conservation residual |sum_N (dp_N/dt) / k_N^2| against
    ``conservation_tol`` (see the module docstring for why the residual
    grows on truncated lattices).  p and the grid are checked once, and
    the stages call :func:`dbnt_rhs`'s kernel directly: the right-hand side
    the monitor evaluates at a sample is the next step's first stage, so a
    step takes four pair sums and two cosine tables, one at t0 + h/2 for
    stages 2 and 3 and one at t0 + h for stage 4 and the next sample's
    monitor.  Where t0 + h rounds apart from the sample time the monitor
    takes its own table; on the CLI's ``linspace`` grid from 0 every h is
    exact and the table is shared.  The trajectory is bitwise classical
    RK4 over :func:`dbnt_rhs`.
    """
    p = _check_p(lattice, p0)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise InvalidSpecError("t_grid must be strictly increasing with >= 2 points")
    if np.any(p < 0):
        raise InvalidSpecError("initial squared coefficients must be nonnegative")
    mirror = lattice.mirror_permutation()
    if np.max(np.abs(p - p[mirror])) > 1e-12:
        raise InvalidSpecError("initial data must be lattice-symmetric (p_N = p_-N)")
    ksq = lattice.members**2

    def monitors(pv, tv, cos):
        """(dp/dt, conservation residual) at an accepted sample."""
        rhs = _pair_sum(lattice, pv, cos)
        res = abs(float(np.sum(rhs / ksq)))
        if res > conservation_tol:
            raise ConservationError(tv, res, conservation_tol)
        sym = float(np.max(np.abs(pv - pv[mirror])))
        if sym > 1e-12:
            raise NumericalConsistencyError(
                f"lattice symmetry violated by {sym:.3e} at t={tv}"
            )
        bad = pv.min()
        if bad < -1e-12:
            raise ModelBreakdownError(tv, float(bad))
        return rhs, res

    samples = np.empty((t_grid.size, lattice.size))
    cons = np.empty(t_grid.size)
    samples[0] = p
    k1, cons[0] = monitors(p, t_grid[0], _cosines(lattice, t_grid[0]))
    for i in range(1, t_grid.size):
        t0, h = t_grid[i - 1], t_grid[i] - t_grid[i - 1]
        mid = _cosines(lattice, t0 + 0.5 * h)
        k2 = _pair_sum(lattice, p + 0.5 * h * k1, mid)
        k3 = _pair_sum(lattice, p + 0.5 * h * k2, mid)
        end = _cosines(lattice, t0 + h)
        k4 = _pair_sum(lattice, p + h * k3, end)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        samples[i] = p
        if t0 + h != t_grid[i]:
            end = _cosines(lattice, t_grid[i])
        k1, cons[i] = monitors(p, t_grid[i], end)
    return BTrajectory(times=t_grid.copy(), p=samples, conservation=cons)
