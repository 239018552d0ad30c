import numpy as np
import pytest

import kdvessel as kv


def grid(x_min=-1.0, x_max=1.0, nx=101, t_min=-1.0, t_max=1.0, nt=11):
    return kv.Grid2D(x_min, x_max, nx, t_min, t_max, nt)


def sample_field(g, fn):
    """fn(x, t) (numpy-broadcastable) tabulated on the grid g, indexed [ix, it]."""
    X, T = np.meshgrid(g.xs, g.ts, indexing="ij")
    return np.asarray(fn(X, T), dtype=float)


class TestGrid2D:
    def test_spacings(self):
        g = grid(0.0, 1.0, 11, 0.0, 2.0, 21)
        assert g.hx == pytest.approx(0.1)
        assert g.ht == pytest.approx(0.1)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            kv.Grid2D(0.0, 1.0, 8, 0.0, 1.0, 11)


class TestKdVResidual:
    def test_exact_on_polynomial(self):
        # accuracy-4 stencils are exact on quartics in x and in t, so the
        # residual is the closed form q_t + (3/2) q q_x - (1/4) q_xxx
        g = grid()
        q = sample_field(g, lambda x, t: x**4 + t**4 + 0.3 * x**3 * t)
        X, T = np.meshgrid(g.xs, g.ts, indexing="ij")
        q_t = 4 * T**3 + 0.3 * X**3
        q_x = 4 * X**3 + 0.9 * X**2 * T
        q_xxx = 24 * X + 1.8 * T
        exact = (q_t + 1.5 * q * q_x - 0.25 * q_xxx)[3:-3, 2:-2]
        assert np.max(np.abs(kv.kdv_residual(q, g) - exact)) < 1e-9

    def test_interior_shape(self):
        # the d^3/dx^3 stencil reaches 3 cells, the d/dt stencil 2: boundary
        # cells are left out, never extrapolated
        g = grid(nx=21, nt=9)
        assert kv.kdv_residual(sample_field(g, lambda x, t: x + t), g).shape == (15, 5)

    def test_constant_field(self):
        # the stencil weights cancel on constants up to accumulation roundoff
        g = grid(nx=31, nt=11)
        q = sample_field(g, lambda x, t: 0.7 + 0 * x * t)
        assert np.max(np.abs(kv.kdv_residual(q, g))) < 1e-12

    def test_reference_soliton_passes(self):
        res = {}
        for nx, nt in ((321, 41), (641, 81)):
            g = kv.Grid2D(-8.0, 8.0, nx, -0.5, 0.5, nt)
            q = sample_field(g, lambda x, t: kv.one_soliton_reference(1.0, 1.0, x, t))
            res[nx] = np.max(np.abs(kv.kdv_residual(q, g)))
        assert res[641] < 1e-3
        assert kv.convergence_order(res[321], res[641]) > 3.5

    def test_three_soliton_field(self, three_soliton):
        spec, _ = three_soliton
        res = {}
        for nx, nt in ((161, 41), (321, 81)):
            g = kv.Grid2D(-4.0, 4.0, nx, -0.2, 0.2, nt)
            q = sample_field(g, lambda x, t: kv.q_soliton(spec, x, t))
            res[nx] = np.max(np.abs(kv.kdv_residual(q, g)))
        assert kv.convergence_order(res[161], res[321]) > 3.5

    def test_bitwise_equal_to_the_term_sum(self):
        # the residual formed from one temporary per stencil term, summed from
        # zeros in stencil order: kdv_residual must keep its bits, zeros'
        # signs included
        g = grid(-3.0, 3.0, 61, -1.0, 1.0, 17)
        q = np.random.default_rng(8).standard_normal((61, 17))
        q[::7, ::3], q[::5, ::4] = 0.0, -0.0

        def derivative(offsets, coeffs, hpow, axis, h):
            terms = (cf * (q[3 + off:58 + off, 2:15] if axis == "x" else q[3:58, 2 + off:15 + off])
                     for off, cf in zip(offsets, coeffs))
            return sum(terms, np.zeros((55, 13))) / h**hpow

        d1 = ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12), 1)
        d3 = ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8), 3)
        want = (derivative(*d1, "t", g.ht) + 1.5 * q[3:58, 2:15] * derivative(*d1, "x", g.hx)
                - 0.25 * derivative(*d3, "x", g.hx))
        assert kv.kdv_residual(q, g).tobytes() == want.tobytes()


class TestConvergenceOrder:
    def test_exact_ratios(self):
        assert kv.convergence_order(1e-2, 2.5e-3) == pytest.approx(2.0)
        assert kv.convergence_order(1e-3, 6.25e-5) == pytest.approx(4.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            kv.convergence_order(0.0, 1e-3)
        with pytest.raises(ValueError):
            kv.convergence_order(1e-3, 0.0)


class TestSampledField:
    """The q array kdv_residual takes: one finite value per grid point."""

    def test_shape_validation(self):
        g = grid(nx=11, nt=9)
        with pytest.raises(ValueError, match="must be"):
            kv.kdv_residual(np.zeros((5, 9)), g)
        with pytest.raises(ValueError, match="must be"):
            kv.kdv_residual(np.zeros((9, 11)), g)

    def test_nonfinite_inside_mask_rejected(self):
        # anywhere in q, even in a corner that no stencil reads
        g = grid(nx=11, nt=9)
        for bad in (np.nan, np.inf):
            vals = np.zeros((11, 9))
            vals[0, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                kv.kdv_residual(vals, g)
