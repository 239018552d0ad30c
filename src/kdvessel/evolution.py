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

The sum is a convolution over the integer labels.  Held on the full label
line -M..M with p_0 = 0, the partners p_{N-a} of every output N are one
sliding window of a zero-padded buffer, so a right-hand side is one
product over the (a, N) grid and one ordered column sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    The frequencies 6 k_a k_b k_out repeat across pairs and, by the mirror,
    come in opposite pairs, so the lattice keeps a table of their
    magnitudes: ``omega`` holds the sorted distinct |6 k_a k_b k_out| (at
    M = 48, 1,002 values for k0 = 1.041 and 521 for k0 = 1, against 6,768
    pairs) and ``pair_omega_index[j]`` the position of pair j's in it.
    ``omega[pair_omega_index]`` is bitwise |6.0 * k_a * k_b * k_out|
    multiplied left to right.  The table is sorted from the first half of
    the pairs and mirrored onto the second.

    The right-hand side runs on the label line -M..M, label m at line
    position m + M (``line_position`` maps storage to line positions), on
    the (2M + 1) x (2M + 1) grid of cells (a, N), a on the rows.
    ``cell_kk`` holds k_a k_b and ``cell_omega_index`` the |frequency|
    index at the kept cells (the pairs' (a, N)); every other cell is a pad,
    with 1.0 and 0.  ``line_scale`` is -1.5 k_N^2 per label.  Every product
    is formed once per lattice.
    """

    k0: float
    M: int
    indices: np.ndarray = field(init=False, compare=False)
    members: np.ndarray = field(init=False, compare=False)
    pair_out: np.ndarray = field(init=False, compare=False)
    pair_a: np.ndarray = field(init=False, compare=False)
    pair_b: np.ndarray = field(init=False, compare=False)
    omega: np.ndarray = field(init=False, compare=False)
    pair_omega_index: np.ndarray = field(init=False, compare=False)
    line_position: np.ndarray = field(init=False, compare=False)
    cell_kk: np.ndarray = field(init=False, compare=False)
    cell_omega_index: np.ndarray = field(init=False, compare=False)
    line_scale: np.ndarray = field(init=False, compare=False)

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
        pair_omega_index = np.concatenate([index, index[::-1]])
        cells = (idx[a] + M, idx[out] + M)
        cell_kk = np.ones((2 * M + 1, 2 * M + 1))
        cell_kk[cells] = k[a] * k[b]
        cell_omega_index = np.zeros(cell_kk.shape, dtype=np.intp)
        cell_omega_index[cells] = pair_omega_index
        arrays = {"indices": idx, "members": k, "pair_out": out, "pair_a": a,
                  "pair_b": b, "omega": omega, "pair_omega_index": pair_omega_index,
                  "line_position": idx + M, "cell_kk": cell_kk,
                  "cell_omega_index": cell_omega_index,
                  "line_scale": -1.5 * (self.k0 * np.arange(-M, M + 1.0))**2}
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


def _line_buffers(lattice: Lattice):
    """The label line as a column, its partner window and a term grid.

    The line is the middle 2M + 1 entries of a zero buffer of 4M + 1; the
    window's row a, column N reads the buffer at line position N - a, so
    it holds p_{N-a}, and 0 where N - a is off the line.  The term grid is
    C-ordered with a on its rows, so a sum over axis 0 adds each column's
    terms one at a time in ascending a (numpy sums pairwise only along the
    fast axis).
    """
    M = lattice.M
    buf = np.zeros(4 * M + 1)
    return (buf[M:3 * M + 1, None], sliding_window_view(buf, 2 * M + 1)[::-1],
            np.empty((2 * M + 1, 2 * M + 1)))


def _cosine_grid(lattice: Lattice, t: float):
    """cos(6 k_a k_b k_N t) at every kept (a, N) cell, one cosine per
    distinct |frequency|; the pads get some other cosine of the table.

    (-w) t is -(w t) exactly and np.cos is even bit for bit, so each kept
    cell's value is np.cos of the pair's signed argument.  M = 1 keeps no
    pair and its table is empty: every cell is a pad, and 1.0 serves.
    """
    if not lattice.omega.size:
        return 1.0
    return np.cos(lattice.omega * t)[lattice.cell_omega_index]


def _line_rhs(lattice: Lattice, column, window, term, cos) -> np.ndarray:
    """dp/dt on the label line at the p held in the line ``column``.

    Every cell's term p_a p_{N-a} / (k_a k_b) cos is formed over the grid
    and each column summed from +0.0 in ascending a.  A pad's term is +-0
    (a = 0, b = 0 or |b| > M puts a 0 in the product) and adds nothing to
    a running sum that starts at +0.0, which is then never -0.0; so each
    output is bitwise the lexicographic sum over its kept pairs.  The
    column N = 0 sums the zero-sum pairs (a, -a), which the flow drops:
    its output is set to 0, so p_0 stays 0.
    """
    np.multiply(column, window, term)
    term /= lattice.cell_kk
    term *= cos
    rhs = np.add.reduce(term, axis=0, initial=0.0)
    rhs *= lattice.line_scale
    rhs[lattice.M] = 0.0
    return rhs


def dbnt_rhs(lattice: Lattice, p, t: float) -> np.ndarray:
    """dp_N/dt from the ordered-pair interaction sum; truncation-dropped
    pairs contribute nothing.

    One stage of the integrator's kernel: p is placed on the label line,
    the cosines come from the lattice's |frequency| table
    (:func:`_cosine_grid`), each bitwise the cosine of the argument the
    plain loop forms, and :func:`_line_rhs` adds each output's terms in
    lexicographic order.  The result is bitwise that of the plain per-pair
    loop (``coefficient_evolution.rhs_vs_bruteforce``).
    """
    p = _check_p(lattice, p)
    column, window, term = _line_buffers(lattice)
    column[lattice.line_position, 0] = p
    rhs = _line_rhs(lattice, column, window, term, _cosine_grid(lattice, t))
    return rhs[lattice.line_position]


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
    grows on truncated lattices).  A sample whose residual or symmetry
    maximum is not finite (the flow overflowed) raises
    :class:`NumericalConsistencyError` naming its time; the arithmetic
    runs with numpy's overflow and invalid warnings off.  p0 (finite,
    nonnegative, symmetric) and the grid are checked once.

    The state lives on the label line, and every stage vector is written
    into the line of one buffer, so the stages call :func:`dbnt_rhs`'s
    kernel with no copy of p.  The right-hand side the monitor evaluates
    at a sample is the next step's first stage, so a step takes four line
    sums and two cosine grids, one at t0 + h/2 for stages 2 and 3 and one
    at t0 + h for stage 4 and the next sample's monitor.  Where t0 + h
    rounds apart from the sample time the monitor takes its own grid; on
    the CLI's ``linspace`` grid from 0 every h is exact and the grid is
    shared.  The symmetry monitor compares the line with its reverse, and
    the residual sums the 2M entries in storage order.  The samples return
    to storage order once, at the end.  The trajectory is bitwise
    classical RK4 over :func:`dbnt_rhs`.
    """
    p = _check_p(lattice, p0)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise InvalidSpecError("t_grid must be strictly increasing with >= 2 points")
    if not np.isfinite(p).all():
        raise InvalidSpecError("initial squared coefficients must be finite")
    if np.any(p < 0):
        raise InvalidSpecError("initial squared coefficients must be nonnegative")
    if np.max(np.abs(p - p[::-1])) > 1e-12:  # storage order is symmetric
        raise InvalidSpecError("initial data must be lattice-symmetric (p_N = p_-N)")
    pos = lattice.line_position
    ksq = lattice.members**2
    column, window, term = _line_buffers(lattice)
    line = column[:, 0]
    times = t_grid.tolist()  # Python floats: the same arithmetic, and t=0.5 in messages

    def stage(cos):
        """dp/dt on the line at the stage vector written into it."""
        return _line_rhs(lattice, column, window, term, cos)

    def monitors(tv, cos):
        """(dp/dt, conservation residual) at the accepted sample in line."""
        rhs = stage(cos)
        res = abs(float(np.add.reduce(rhs[pos] / ksq)))
        if not res < math.inf:
            raise NumericalConsistencyError(f"conservation residual is {res} at t={tv}")
        if res > conservation_tol:
            raise ConservationError(tv, res, conservation_tol)
        sym = float(np.maximum.reduce(np.abs(line - line[::-1])))
        if not sym <= 1e-12:  # NaN too
            raise NumericalConsistencyError(
                f"lattice symmetry violated by {sym:.3e} at t={tv}"
            )
        bad = np.minimum.reduce(line)  # p_0 = 0 leaves every min below -1e-12 as is
        if bad < -1e-12:
            raise ModelBreakdownError(tv, float(bad))
        return rhs, res

    samples = np.empty((len(times), line.size))
    cons = np.empty(len(times))
    line[pos] = p
    samples[0] = line
    p = samples[0]
    with np.errstate(over="ignore", invalid="ignore"):
        k1, cons[0] = monitors(times[0], _cosine_grid(lattice, times[0]))
        for i in range(1, len(times)):
            t0, h = times[i - 1], times[i] - times[i - 1]
            mid = _cosine_grid(lattice, t0 + 0.5 * h)
            np.add(p, 0.5 * h * k1, line)
            k2 = stage(mid)
            np.add(p, 0.5 * h * k2, line)
            k3 = stage(mid)
            end = _cosine_grid(lattice, t0 + h)
            np.add(p, h * k3, line)
            k4 = stage(end)
            np.add(p, (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), line)
            samples[i] = line
            p = samples[i]
            if t0 + h != times[i]:
                end = _cosine_grid(lattice, times[i])
            k1, cons[i] = monitors(times[i], end)
    return BTrajectory(times=t_grid.copy(), p=samples[:, pos], conservation=cons)
