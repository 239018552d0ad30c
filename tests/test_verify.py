import numpy as np
import pytest

import kdvessel as kv


def grid(x_min=-1.0, x_max=1.0, nx=101, t_min=-1.0, t_max=1.0, nt=11):
    return kv.Grid2D(x_min, x_max, nx, t_min, t_max, nt)


def sample_field(g, fn, label):
    """fn(x, t) (numpy-broadcastable) tabulated on the grid g."""
    X, T = np.meshgrid(g.xs, g.ts, indexing="ij")
    return kv.SampledField(grid=g, values=np.asarray(fn(X, T), dtype=float), label=label)


class TestGrid2D:
    def test_spacings(self):
        g = grid(0.0, 1.0, 11, 0.0, 2.0, 21)
        assert g.hx == pytest.approx(0.1)
        assert g.ht == pytest.approx(0.1)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            kv.Grid2D(0.0, 1.0, 8, 0.0, 1.0, 11)


class TestFdDerivative:
    def test_first_derivative_exact_on_quadratic(self):
        g = grid()
        f = sample_field(g, lambda x, t: x**2, "x^2")
        d = kv.fd_derivative(f, "x", 1, 2)
        X, _ = np.meshgrid(g.xs, g.ts, indexing="ij")
        assert np.max(np.abs((d.values - 2 * X)[d.mask])) < 1e-13

    def test_accuracy4_exact_on_quartic(self):
        g = grid()
        f = sample_field(g, lambda x, t: x**4, "x^4")
        X, _ = np.meshgrid(g.xs, g.ts, indexing="ij")
        d1 = kv.fd_derivative(f, "x", 1, 4)
        assert np.max(np.abs((d1.values - 4 * X**3)[d1.mask])) < 1e-12
        d2 = kv.fd_derivative(f, "x", 2, 4)
        assert np.max(np.abs((d2.values - 12 * X**2)[d2.mask])) < 1e-10

    def test_third_derivative_of_sine(self):
        errs = {}
        for nx in (101, 201):
            g = grid(0.0, 2 * np.pi, nx)
            f = sample_field(g, lambda x, t: np.sin(x) + 0 * t, "sin")
            d3 = kv.fd_derivative(f, "x", 3, 2)
            X, _ = np.meshgrid(g.xs, g.ts, indexing="ij")
            errs[nx] = np.max(np.abs((d3.values + np.cos(X))[d3.mask]))
        assert kv.convergence_order(errs[101], errs[201]) > 1.8

    def test_accuracy4_beats_accuracy2(self):
        g = grid(0.0, 1.0, 201)
        f = sample_field(g, lambda x, t: np.exp(x) + 0 * t, "exp")
        X, _ = np.meshgrid(g.xs, g.ts, indexing="ij")
        e2 = np.max(np.abs((kv.fd_derivative(f, "x", 1, 2).values - np.exp(X))[3:-3, :]))
        e4 = np.max(np.abs((kv.fd_derivative(f, "x", 1, 4).values - np.exp(X))[3:-3, :]))
        assert e4 < e2 * (g.hx**2) * 10

    def test_boundary_masked(self):
        g = grid(nx=21, nt=9)
        f = sample_field(g, lambda x, t: x + t, "lin")
        d3 = kv.fd_derivative(f, "x", 3, 4)
        assert not d3.mask[:3].any() and not d3.mask[-3:].any()
        assert d3.mask[3:-3].all()

    def test_axis_and_stencil_validation(self):
        g = grid()
        f = sample_field(g, lambda x, t: x, "lin")
        with pytest.raises(ValueError):
            kv.fd_derivative(f, "z", 1, 2)
        with pytest.raises(ValueError):
            kv.fd_derivative(f, "x", 4, 2)


class TestKdVResidual:
    def test_constant_field(self):
        # the stencil weights cancel on constants up to accumulation roundoff
        g = grid(nx=31, nt=11)
        f = sample_field(g, lambda x, t: 0.7 + 0 * x * t, "const")
        res = kv.kdv_residual(f, accuracy=4)
        assert res.max_valid() < 1e-12

    def test_reference_soliton_passes(self):
        res = {}
        for nx, nt in ((321, 41), (641, 81)):
            g = kv.Grid2D(-8.0, 8.0, nx, -0.5, 0.5, nt)
            f = sample_field(g, lambda x, t: kv.one_soliton_reference(1.0, 1.0, x, t), "q")
            res[nx] = kv.kdv_residual(f, accuracy=4).max_valid()
        assert res[641] < 1e-3
        assert kv.convergence_order(res[321], res[641]) > 3.5

    def test_three_soliton_field(self, three_soliton):
        spec, _ = three_soliton
        res = {}
        for nx, nt in ((161, 41), (321, 81)):
            g = kv.Grid2D(-4.0, 4.0, nx, -0.2, 0.2, nt)
            f = sample_field(g, lambda x, t: kv.q_soliton(spec, x, t), "q3")
            res[nx] = kv.kdv_residual(f, accuracy=4).max_valid()
        assert kv.convergence_order(res[161], res[321]) > 3.5


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
    def test_shape_validation(self):
        g = grid(nx=11, nt=9)
        with pytest.raises(ValueError):
            kv.SampledField(grid=g, values=np.zeros((5, 9)), label="bad")

    def test_nonfinite_inside_mask_rejected(self):
        g = grid(nx=11, nt=9)
        vals = np.zeros((11, 9))
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            kv.SampledField(grid=g, values=vals, label="bad")
        mask = np.ones((11, 9), dtype=bool)
        mask[0, 0] = False
        kv.SampledField(grid=g, values=vals, label="ok", mask=mask)  # flagged: fine

    def test_max_valid_requires_cells(self):
        g = grid(nx=11, nt=9)
        f = kv.SampledField(grid=g, values=np.zeros((11, 9)), label="z",
                            mask=np.zeros((11, 9), dtype=bool))
        with pytest.raises(ValueError):
            f.max_valid()
