"""Uniform grids and the finite-difference KdV residual.

The KdV field is checked against q_t = -(3/2) q q_x + (1/4) q_xxx, with
those exact coefficient conventions, through accuracy-4 centered
differences.  The residual covers only the interior cells every stencil
reaches; boundary cells are left out, never extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid2D", "kdv_residual", "convergence_order"]


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular grid; values are indexed [ix, it]."""

    x_min: float
    x_max: float
    nx: int
    t_min: float
    t_max: float
    nt: int

    def __post_init__(self):
        if self.nx < 9 or self.nt < 9:
            raise ValueError("need nx, nt >= 9 for interior third-derivative stencils")
        if not (self.x_max > self.x_min and self.t_max > self.t_min):
            raise ValueError("grid extents must be increasing")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def ht(self) -> float:
        return (self.t_max - self.t_min) / (self.nt - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.nt)


# Accuracy-4 centered stencils: (offsets, coefficients, h power).
_D1 = ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12), 1)
_D3 = ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8), 3)


def kdv_residual(q, grid: Grid2D) -> np.ndarray:
    """q_t + (3/2) q q_x - (1/4) q_xxx of q[ix, it] on the interior cells
    [3:nx-3, 2:nt-2], which the d^3/dx^3 and d/dt stencils reach.

    Raises ValueError unless q is a finite (nx, nt) array.
    """
    q = np.asarray(q, dtype=float)
    nx, nt = grid.nx, grid.nt
    if q.shape != (nx, nt):
        raise ValueError(f"q must be (nx, nt) = {(nx, nt)}, got {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("q has non-finite values")

    def shifted(ix, it):
        return q[3 + ix:nx - 3 + ix, 2 + it:nt - 2 + it]

    term = np.empty((nx - 6, nt - 4))  # the one scratch array of every stencil term

    def derivative(stencil, axis, h):
        offsets, coeffs, hpow = stencil
        acc = np.zeros((nx - 6, nt - 4))
        for off, cf in zip(offsets, coeffs):
            acc += np.multiply(cf, shifted(off, 0) if axis == "x" else shifted(0, off), out=term)
        acc /= h**hpow
        return acc

    # q_t + (1.5 q) q_x - 0.25 q_xxx, left to right, in place
    res = derivative(_D1, "t", grid.ht)
    q_x = derivative(_D1, "x", grid.hx)
    q_x *= np.multiply(1.5, shifted(0, 0), out=term)
    res += q_x
    q_xxx = derivative(_D3, "x", grid.hx)
    q_xxx *= 0.25
    res -= q_xxx
    return res


def convergence_order(res_h: float, res_h2: float) -> float:
    """Observed order log2(res_h / res_h2) from residuals at h and h/2."""
    if res_h <= 0 or res_h2 <= 0:
        raise ValueError("residuals must be positive to estimate an order")
    return float(np.log2(res_h / res_h2))
