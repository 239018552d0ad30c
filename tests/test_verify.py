import numpy as np
import pytest

import kdvessel as kv


def grid(x_min=-1.0, x_max=1.0, nx=101, t_min=-1.0, t_max=1.0, nt=11):
    return kv.Grid2D(x_min, x_max, nx, t_min, t_max, nt)


class TestGrid2D:
    def test_spacings(self):
        g = grid(0.0, 1.0, 11, 0.0, 2.0, 21)
        assert g.hx == pytest.approx(0.1)
        assert g.ht == pytest.approx(0.1)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            kv.Grid2D(0.0, 1.0, 8, 0.0, 1.0, 11)

    def test_refine_halves_spacing(self):
        g = grid(nx=11, nt=11)
        r = g.refine()
        assert r.hx == pytest.approx(g.hx / 2)
        assert (r.nx, r.nt) == (21, 21)


class TestFdDerivative:
    def test_first_derivative_exact_on_quadratic(self):
        g = grid()
        f = kv.sample_field(g, lambda x, t: x**2, "x^2")
        d = kv.fd_derivative(f, "x", 1, 2)
        X, _ = np.meshgrid(g.xs, g.ts, indexing="ij")
        assert np.max(np.abs((d.values - 2 * X)[d.mask])) < 1e-13

    def test_accuracy4_exact_on_quartic(self):
        g = grid()
        f = kv.sample_field(g, lambda x, t: x**4, "x^4")
        X, _ = np.meshgrid(g.xs, g.ts, indexing="ij")
        d1 = kv.fd_derivative(f, "x", 1, 4)
        assert np.max(np.abs((d1.values - 4 * X**3)[d1.mask])) < 1e-12
        d2 = kv.fd_derivative(f, "x", 2, 4)
        assert np.max(np.abs((d2.values - 12 * X**2)[d2.mask])) < 1e-10

    def test_third_derivative_of_sine(self):
        errs = {}
        for nx in (101, 201):
            g = grid(0.0, 2 * np.pi, nx)
            f = kv.sample_field(g, lambda x, t: np.sin(x) + 0 * t, "sin")
            d3 = kv.fd_derivative(f, "x", 3, 2)
            X, _ = np.meshgrid(g.xs, g.ts, indexing="ij")
            errs[nx] = np.max(np.abs((d3.values + np.cos(X))[d3.mask]))
        assert kv.convergence_order(errs[101], errs[201]) > 1.8

    def test_accuracy4_beats_accuracy2(self):
        g = grid(0.0, 1.0, 201)
        f = kv.sample_field(g, lambda x, t: np.exp(x) + 0 * t, "exp")
        X, _ = np.meshgrid(g.xs, g.ts, indexing="ij")
        e2 = np.max(np.abs((kv.fd_derivative(f, "x", 1, 2).values - np.exp(X))[3:-3, :]))
        e4 = np.max(np.abs((kv.fd_derivative(f, "x", 1, 4).values - np.exp(X))[3:-3, :]))
        assert e4 < e2 * (g.hx**2) * 10

    def test_boundary_masked(self):
        g = grid(nx=21, nt=9)
        f = kv.sample_field(g, lambda x, t: x + t, "lin")
        d3 = kv.fd_derivative(f, "x", 3, 4)
        assert not d3.mask[:3].any() and not d3.mask[-3:].any()
        assert d3.mask[3:-3].all()

    def test_axis_and_stencil_validation(self):
        g = grid()
        f = kv.sample_field(g, lambda x, t: x, "lin")
        with pytest.raises(ValueError):
            kv.fd_derivative(f, "z", 1, 2)
        with pytest.raises(ValueError):
            kv.fd_derivative(f, "x", 4, 2)


class TestKdVResidual:
    def test_constant_field(self):
        # the stencil weights cancel on constants up to accumulation roundoff
        g = grid(nx=31, nt=11)
        f = kv.sample_field(g, lambda x, t: 0.7 + 0 * x * t, "const")
        res = kv.kdv_residual(f, accuracy=4)
        assert res.max_valid() < 1e-12

    def test_reference_soliton_passes(self):
        res = {}
        for nx, nt in ((321, 41), (641, 81)):
            g = kv.Grid2D(-8.0, 8.0, nx, -0.5, 0.5, nt)
            f = kv.sample_field(g, lambda x, t: kv.one_soliton_reference(1.0, 1.0, x, t), "q")
            res[nx] = kv.kdv_residual(f, accuracy=4).max_valid()
        assert res[641] < 1e-3
        assert kv.convergence_order(res[321], res[641]) > 3.5

    def test_mixed_analytic_mode(self):
        # analytic x-derivatives leave the t stencil as the only error source
        k = 1.0

        def q(x, t):
            return kv.one_soliton_reference(k, 1.0, x, t)

        def qx(x, t):
            th = np.tanh(k * x + k**3 * t)
            s2 = (1 + th) * (1 - th)
            return 4 * k**3 * s2 * th

        def qxxx(x, t):
            th = np.tanh(k * x + k**3 * t)
            s2 = (1 + th) * (1 - th)
            return k**5 * th * (16 * s2 - 48 * s2**2)

        g = kv.Grid2D(-8.0, 8.0, 161, -0.5, 0.5, 41)
        f = kv.sample_field(g, q, "q")
        fx = kv.sample_field(g, qx, "qx")
        fxxx = kv.sample_field(g, qxxx, "qxxx")
        mixed = kv.kdv_residual(f, accuracy=4, q_x=fx, q_xxx=fxxx)
        pure = kv.kdv_residual(f, accuracy=4)
        assert mixed.max_valid() < pure.max_valid()

    def test_three_soliton_field(self, three_soliton):
        spec, _ = three_soliton
        res = {}
        for nx, nt in ((161, 41), (321, 81)):
            g = kv.Grid2D(-4.0, 4.0, nx, -0.2, 0.2, nt)
            f = kv.sample_field(g, lambda x, t: kv.q_soliton(spec, x, t), "q3")
            res[nx] = kv.kdv_residual(f, accuracy=4).max_valid()
        assert kv.convergence_order(res[161], res[321]) > 3.5


class TestBetaPdeResidual:
    def test_zero_field(self):
        g = grid(nx=31, nt=11)
        f = kv.sample_field(g, lambda x, t: 0.0 * x * t, "zero")
        assert kv.beta_pde_residual(f, accuracy=4).max_valid() == 0.0

    def test_one_soliton_sigmoid_profile(self):
        # beta = -2k / (1 + e^{-(2kx + 2k^3 t + ln c)}) solves the integrated
        # equation exactly; the measured residual is pure stencil error
        k, c = 1.0, 1.0

        def beta(x, t):
            return -2.0 * k / (1.0 + np.exp(-(2 * k * x + 2 * k**3 * t + np.log(c))))

        res = {}
        for nx, nt in ((161, 21), (321, 41)):
            g = kv.Grid2D(-6.0, 6.0, nx, -0.5, 0.5, nt)
            res[nx] = kv.beta_pde_residual(
                kv.sample_field(g, beta, "beta"), accuracy=4
            ).max_valid()
        assert kv.convergence_order(res[161], res[321]) > 3.5

    def test_reconstructed_profile_is_measured_not_asserted(self):
        # truncated-lattice reconstruction: the PDE residual is reported
        # together with the dropped-pair fraction; no smallness is claimed
        lat = kv.make_lattice(1.0, 4)
        traj = kv.integrate_b(lat, 0.2 * np.ones(lat.size), np.linspace(0, 0.2, 101),
                              conservation_tol=np.inf)
        g = kv.Grid2D(-2.0, 2.0, 81, 0.02, 0.18, 17)
        f = kv.sample_field(g, np.vectorize(lambda x, t: kv.beta_from_b(lat, traj, x, t)),
                            "beta_reconstructed")
        res = kv.beta_pde_residual(f, accuracy=2)
        value = res.max_valid()
        assert np.isfinite(value)
        assert 0.0 < lat.dropped_fraction < 1.0


class TestQFromBeta:
    def test_linear_profile(self):
        g = grid(nx=31, nt=11)
        f = kv.sample_field(g, lambda x, t: x + 0 * t, "x")
        q = kv.q_from_beta(f)
        assert np.max(np.abs(q.values[q.mask] - 2.0)) < 1e-13

    def test_matches_soliton_reference(self):
        k = 1.0

        def beta(x, t):
            return -2.0 * k / (1.0 + np.exp(-(2 * k * x + 2 * k**3 * t)))

        g = kv.Grid2D(-5.0, 5.0, 501, -0.2, 0.2, 9)
        q = kv.q_from_beta(kv.sample_field(g, beta, "beta"))
        X, T = np.meshgrid(g.xs, g.ts, indexing="ij")
        ref = kv.one_soliton_reference(k, 1.0, X, T)
        assert np.max(np.abs((q.values - ref)[q.mask])) < 2e-3  # O(h^2)

    def test_parity(self):
        # even beta gives odd q up to stencil error
        g = kv.Grid2D(-3.0, 3.0, 241, -0.1, 0.1, 9)
        f = kv.sample_field(g, lambda x, t: np.sin(x) ** 2 + 0 * t, "even")
        q = kv.q_from_beta(f)
        flipped = q.values[::-1, :]
        inner = q.mask & q.mask[::-1, :]
        assert np.max(np.abs((q.values + flipped)[inner])) < 1e-10


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
