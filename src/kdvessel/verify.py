"""Uniform grids, centered-difference stencils and the KdV residual.

The KdV field is checked against q_t = -(3/2) q q_x + (1/4) q_xxx, with
those exact coefficient conventions.  Boundary cells that a stencil cannot
reach are masked invalid, never extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["Grid2D", "SampledField", "fd_derivative", "kdv_residual", "convergence_order"]


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


@dataclass(frozen=True)
class SampledField:
    """Real values on a Grid2D with a validity mask (True = usable)."""

    grid: Grid2D
    values: np.ndarray
    label: str
    mask: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.nx, self.grid.nt):
            raise ValueError(f"values must be (nx, nt) = {(self.grid.nx, self.grid.nt)}")
        mask = self.mask
        mask = np.ones(vals.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if not np.all(np.isfinite(vals[mask])):
            raise ValueError(f"field '{self.label}' has non-finite values inside the mask")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mask", mask)

    def max_valid(self) -> float:
        """Max |value| over the valid cells."""
        if not self.mask.any():
            raise ValueError("field has no valid cells")
        return float(np.max(np.abs(self.values[self.mask])))


# Centered stencils: (order, accuracy) -> (offsets, coefficients, h power).
_STENCILS = {
    (1, 2): ((-1, 1), (-0.5, 0.5), 1),
    (1, 4): ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12), 1),
    (2, 2): ((-1, 0, 1), (1.0, -2.0, 1.0), 2),
    (2, 4): ((-2, -1, 0, 1, 2), (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12), 2),
    (3, 2): ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5), 3),
    (3, 4): ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8), 3),
}


def fd_derivative(field: SampledField, axis: str, order: int, accuracy: int = 2) -> SampledField:
    """Centered-difference derivative along 'x' or 't'; boundaries masked."""
    if axis not in ("x", "t"):
        raise ValueError("axis must be 'x' or 't'")
    try:
        offsets, coeffs, hpow = _STENCILS[(order, accuracy)]
    except KeyError:
        raise ValueError(f"no stencil for order={order}, accuracy={accuracy}") from None
    ax = 0 if axis == "x" else 1
    h = field.grid.hx if axis == "x" else field.grid.ht
    npts = field.values.shape[ax]
    radius = max(abs(o) for o in offsets)
    if npts < 2 * radius + 1:
        raise ValueError(f"grid too small along {axis} for the {order}/{accuracy} stencil")

    out = np.zeros_like(field.values)
    valid = np.zeros(field.values.shape, dtype=bool)
    core_sl = [slice(None), slice(None)]
    core_sl[ax] = slice(radius, npts - radius)
    core_sl = tuple(core_sl)
    valid[core_sl] = True
    acc = np.zeros_like(out[core_sl])
    mask_acc = np.ones(out[core_sl].shape, dtype=bool)
    for off, cf in zip(offsets, coeffs):
        sl = [slice(None), slice(None)]
        sl[ax] = slice(radius + off, npts - radius + off)
        sl = tuple(sl)
        acc = acc + cf * field.values[sl]
        mask_acc &= field.mask[sl]
    out[core_sl] = acc / h**hpow
    valid[core_sl] &= mask_acc
    prefix = {"x": "d/dx", "t": "d/dt"}[axis]
    return SampledField(
        grid=field.grid, values=out, label=f"{prefix}^{order}[{field.label}]", mask=valid
    )


def kdv_residual(q: SampledField, accuracy: int = 4) -> SampledField:
    """Residual field q_t + (3/2) q q_x - (1/4) q_xxx on the interior."""
    qt = fd_derivative(q, "t", 1, accuracy)
    qx = fd_derivative(q, "x", 1, accuracy)
    qxxx = fd_derivative(q, "x", 3, accuracy)
    vals = qt.values + 1.5 * q.values * qx.values - 0.25 * qxxx.values
    mask = qt.mask & qx.mask & qxxx.mask & q.mask
    vals = np.where(mask, vals, 0.0)
    return SampledField(grid=q.grid, values=vals, label=f"kdv_residual[{q.label}]", mask=mask)


def convergence_order(res_h: float, res_h2: float) -> float:
    """Observed order log2(res_h / res_h2) from residuals at h and h/2."""
    if res_h <= 0 or res_h2 <= 0:
        raise ValueError("residuals must be positive to estimate an order")
    return float(np.log2(res_h / res_h2))
