"""Coefficient evolution on a symmetric wavenumber lattice.

The squared coefficients p_N(t) = |b_N(t)|^2 on a lattice
Gamma = {m k0 : m = -M..-1, 1..M} evolve by

    dp_N/dt = -(3/2) k_N^2 sum_{(n,m): k_n + k_m = k_N}
              p_n p_m / (k_n k_m) cos(6 k_n k_m k_N t),

an ordered-pair sum ((n, m) and (m, n) both count).  The reconstructed
profile is beta(x,t) = sum_N p_N(t) sin^2(k_N x - k_N^3 t) / k_N^2.

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

__all__ = ["Lattice", "make_lattice", "BTrajectory", "dbnt_rhs",
           "conservation_residual", "integrate_b", "beta_from_b"]


@dataclass(frozen=True)
class Lattice:
    """Symmetric truncated lattice {m k0 : m in -M..-1, 1..M}.

    ``indices`` are the integer labels m in storage order; ``members`` the
    wavenumbers.  ``pair_table[j]`` lists, in lexicographic order, the
    ordered index pairs (as storage positions) whose labels sum to the
    label of position j.
    """

    k0: float
    M: int
    indices: np.ndarray = field(init=False, compare=False)
    members: np.ndarray = field(init=False, compare=False)
    pair_table: tuple = field(init=False, compare=False)
    kept_pairs: int = field(init=False, compare=False)
    dropped_pairs: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.k0 <= 0 or self.M < 1:
            raise InvalidSpecError("need k0 > 0 and M >= 1")
        idx = np.array([m for m in range(-self.M, self.M + 1) if m != 0], dtype=int)
        members = self.k0 * idx.astype(float)
        pos = {int(m): i for i, m in enumerate(idx)}
        table = []
        kept = dropped = 0
        for m_out in idx:
            pairs = []
            for a in idx:
                for b in idx:
                    if a + b == m_out:
                        pairs.append((pos[int(a)], pos[int(b)]))
            table.append(tuple(pairs))
        for a in idx:
            for b in idx:
                s = int(a) + int(b)
                if s == 0:
                    continue  # zero sums are outside the bookkeeping
                if abs(s) <= self.M:
                    kept += 1
                else:
                    dropped += 1
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "pair_table", tuple(table))
        object.__setattr__(self, "kept_pairs", kept)
        object.__setattr__(self, "dropped_pairs", dropped)
        self.indices.setflags(write=False)
        self.members.setflags(write=False)

    @property
    def size(self) -> int:
        return self.indices.size

    @property
    def dropped_fraction(self) -> float:
        total = self.kept_pairs + self.dropped_pairs
        return self.dropped_pairs / total if total else 0.0

    def mirror_permutation(self) -> np.ndarray:
        """Storage positions of -k_N for each position of k_N."""
        pos = {int(m): i for i, m in enumerate(self.indices)}
        return np.array([pos[-int(m)] for m in self.indices], dtype=int)


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


def dbnt_rhs(lattice: Lattice, p, t: float) -> np.ndarray:
    """dp_N/dt from the ordered-pair interaction sum; truncation-dropped
    pairs contribute nothing."""
    p = _check_p(lattice, p)
    k = lattice.members
    out = np.empty(lattice.size)
    for j in range(lattice.size):
        kN = k[j]
        acc = 0.0
        for (ia, ib) in lattice.pair_table[j]:
            acc += p[ia] * p[ib] / (k[ia] * k[ib]) * np.cos(6.0 * k[ia] * k[ib] * kN * t)
        out[j] = -1.5 * kN**2 * acc
    return out


def conservation_residual(lattice: Lattice, p, t: float) -> float:
    """|sum_N (dp_N/dt) / k_N^2| at the instantaneous state."""
    rhs = dbnt_rhs(lattice, p, t)
    return abs(float(np.sum(rhs / lattice.members**2)))


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
    instantaneous conservation residual against ``conservation_tol``
    (see the module docstring for why the residual grows on truncated
    lattices).
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

    def monitors(pv, tv):
        res = conservation_residual(lattice, pv, tv)
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
        return res

    samples = np.empty((t_grid.size, lattice.size))
    cons = np.empty(t_grid.size)
    samples[0] = p
    cons[0] = monitors(p, t_grid[0])
    for i in range(1, t_grid.size):
        t0, h = t_grid[i - 1], t_grid[i] - t_grid[i - 1]
        k1 = dbnt_rhs(lattice, p, t0)
        k2 = dbnt_rhs(lattice, p + 0.5 * h * k1, t0 + 0.5 * h)
        k3 = dbnt_rhs(lattice, p + 0.5 * h * k2, t0 + 0.5 * h)
        k4 = dbnt_rhs(lattice, p + h * k3, t0 + h)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        samples[i] = p
        cons[i] = monitors(p, t_grid[i])
    return BTrajectory(times=t_grid.copy(), p=samples, conservation=cons)


def beta_from_b(lattice: Lattice, traj: BTrajectory, x: float, t: float) -> float:
    """Reconstructed profile sum_N p_N(t) sin^2(k_N x - k_N^3 t) / k_N^2.

    p is interpolated linearly (order 1) in t between stored samples; t
    must lie within the trajectory range.
    """
    times = traj.times
    if t < times[0] or t > times[-1]:
        raise ValueError(f"t={t} outside trajectory range [{times[0]}, {times[-1]}]")
    i = int(np.searchsorted(times, t, side="right"))
    if i >= times.size:
        p = traj.p[-1]
    else:
        t0, t1 = times[i - 1], times[i]
        w = (t - t0) / (t1 - t0)
        p = (1.0 - w) * traj.p[i - 1] + w * traj.p[i]
    k = lattice.members
    theta = k * x - k**3 * t
    return float(np.sum(p * np.sin(theta) ** 2 / k**2))
