import dataclasses
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kdvessel as kv
from kdvessel import core, suite


class TestEvalS:
    def test_zero_coupling_gives_identity(self, zero_vessel):
        for lam in (1.0, 2.0 + 3.0j, -0.4j):
            assert np.array_equal(kv.eval_S(zero_vessel, lam, kv.evaluate(zero_vessel, 0.3, 0.1)), np.eye(2))

    def test_one_soliton_frozen_value(self, one_soliton):
        # 1-dimensional resolvent arithmetic: A = -i, X(0,0) = 2
        _, vessel = one_soliton
        S = kv.eval_S(vessel, 1.0, kv.evaluate(vessel, 0.0, 0.0))
        expected = np.array(
            [[(1 - 1j) / 2, -(1 - 1j) / 2], [-(1 - 1j) / 2, (3 + 1j) / 2]]
        )
        assert np.allclose(S, expected, atol=1e-14)

    def test_identity_at_infinity(self, one_soliton):
        _, vessel = one_soliton
        state = kv.evaluate(vessel, 0.2, 0.1)
        G = state.B.conj().T @ np.linalg.inv(state.M) @ state.B
        S = kv.eval_S(vessel, 1e6, state)
        assert np.linalg.norm(S - np.eye(2)) < 1e-5 * np.linalg.norm(G)

    def test_pole_rejected(self, one_soliton):
        _, vessel = one_soliton
        with pytest.raises(kv.PoleError):
            kv.eval_S(vessel, -1j, kv.evaluate(vessel, 0.0, 0.0))  # spectrum of A is {-i}



class TestSymmetry:
    def test_soliton(self, one_soliton):
        _, vessel = one_soliton
        assert kv.symmetry_residual(vessel, 1.0, kv.evaluate(vessel, 0.4, 0.2)) < 1e-12

    def test_discrete(self, discrete_12):
        _, vessel = discrete_12
        assert kv.symmetry_residual(vessel, 2.0 + 3.0j, kv.evaluate(vessel, 0.7, 0.3)) < 1e-12

    def test_zero_coupling_exact(self, zero_vessel):
        assert kv.symmetry_residual(zero_vessel, 0.7 + 0.2j, kv.evaluate(zero_vessel, 0.0, 0.0)) == 0.0

    def test_inverse_via_symmetry(self, three_soliton):
        # S(lambda)^-1 = sigma1 S*(-conj(lambda)) sigma1
        _, vessel = three_soliton
        lam = 0.9 - 0.6j
        state = kv.evaluate(vessel, 0.3, 0.1)
        S = kv.eval_S(vessel, lam, state)
        S_ref = kv.eval_S(vessel, -np.conj(lam), state)
        inv = core.SIGMA1 @ S_ref.conj().T @ core.SIGMA1
        assert np.linalg.norm(inv @ S - np.eye(2)) < 1e-10


class TestLambdaArrays:
    def test_array_matches_scalar_calls(self, three_soliton, rotated_three_soliton):
        rng = np.random.default_rng(11)
        lams = rng.uniform(-3, 3, (4, 5)) + 1j * rng.uniform(-3, 3, (4, 5))
        for vessel in (three_soliton[1], rotated_three_soliton):
            state = kv.evaluate(vessel, 0.3, 0.1)
            S = kv.eval_S(vessel, lams, state)
            res = kv.symmetry_residual(vessel, lams, state)
            assert S.shape == (4, 5, 2, 2) and res.shape == (4, 5)
            for i in np.ndindex(lams.shape):
                S1 = kv.eval_S(vessel, lams[i], state)
                assert np.linalg.norm(S[i] - S1) <= 1e-15 * np.linalg.norm(S1)
                # relative to the size of the product S* sigma1 S it measures
                r1 = kv.symmetry_residual(vessel, lams[i], state)
                assert abs(res[i] - r1) <= 1e-15 * np.linalg.norm(S1) ** 2

    def test_pole_entry_is_named(self, three_soliton):
        _, vessel = three_soliton
        pole = complex(vessel.spectrum[1])
        lams = np.array([1.0, 2.0 + 1.0j, pole + 5e-11, -0.5j])
        state = kv.evaluate(vessel, 0.3, 0.1)
        for fn in (kv.eval_S, kv.symmetry_residual):
            with pytest.raises(kv.PoleError) as exc:
                fn(vessel, lams, state)
            assert exc.value.lam == lams[2] and exc.value.nearest_pole == pole

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_symmetry_over_random_discrete_specs(self, data):
        n = data.draw(st.integers(1, 4))
        k = np.sort(data.draw(st.lists(st.floats(0.5, 2.5), min_size=n, max_size=n)))
        if np.any(np.diff(k) < 0.1):
            k = 0.5 + 0.4 * np.arange(n)
        mod = np.array(data.draw(st.lists(st.floats(0.05, 0.5), min_size=n, max_size=n)))
        phase = np.array(data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n)))
        vessel = kv.build_discrete_vessel(
            kv.DiscreteSpectrum(k=k, b=mod * np.exp(1j * phase)))
        lams = np.array(data.draw(st.lists(
            st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                               allow_nan=False, allow_infinity=False),
            min_size=1, max_size=20)))
        # the spectrum i k^2 is its own reflection under lambda -> -conj(lambda)
        lams = lams[np.abs(lams[:, None] - vessel.spectrum).min(axis=1) > 1e-3]
        assume(lams.size > 0)
        x = data.draw(st.floats(-1.5, 1.5))
        t = data.draw(st.floats(-0.3, 0.3))
        assert np.all(kv.symmetry_residual(vessel, lams, kv.evaluate(vessel, x, t)) < 1e-10)


class TestSampleLambdas:
    def test_matches_one_candidate_at_a_time(self):
        # a "spectrum" tiling the annulus 0.099 <= |lambda| <= 0.111 rejects
        # about 2% of the candidates, so some batches are re-drawn
        g = np.arange(-0.111, 0.1115, 1.4e-3)
        grid = (g[:, None] + 1j * g).ravel()
        vessel = SimpleNamespace(spectrum=grid[(np.abs(grid) > 0.098) & (np.abs(grid) < 0.112)])
        for count in (1, 100, 300):
            rng, ref_rng = np.random.default_rng([7, count]), np.random.default_rng([7, count])
            lams = suite._sample_lambdas(rng, vessel, count)
            ref, drawn = [], 0
            while len(ref) < count:
                mag = 10.0 ** ref_rng.uniform(-1.0, 1.0)
                lam = mag * np.exp(1j * ref_rng.uniform(0.0, 2.0 * np.pi))
                drawn += 1
                if (np.min(np.abs(lam - vessel.spectrum)) > 1e-3
                        and np.min(np.abs(-np.conj(lam) - vessel.spectrum)) > 1e-3):
                    ref.append(lam)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert lams.shape == (count,)
            assert np.all(np.abs(lams - ref) <= 4e-16 * np.abs(ref))
        assert drawn > count  # the last run re-drew rejected candidates


class TestDSResidual:
    def test_soliton_small(self, one_soliton):
        _, vessel = one_soliton
        assert kv.ds_residual(vessel, 0.7 + 0.4j, 0.3, 0.1, h=1e-3) < 1e-6

    def test_order_two(self, discrete_12):
        _, vessel = discrete_12
        r1 = kv.ds_residual(vessel, 0.7 + 0.4j, 0.3, 0.1, h=1e-3)
        r2 = kv.ds_residual(vessel, 0.7 + 0.4j, 0.3, 0.1, h=5e-4)
        assert 3.5 < r1 / r2 < 4.5

    def test_zero_coupling(self, zero_vessel):
        assert kv.ds_residual(zero_vessel, 1.2, 0.0, 0.0, h=1e-3) < 1e-14


class TestIntertwining:
    def test_soliton_off_spectrum(self):
        # k = 1.2 keeps the spectrum {-1.44i} away from lambda = -i
        vessel = kv.build_soliton(kv.SolitonSpec.from_c([1.2], [1.0]))
        grid = 0.1 + 1e-3 * np.arange(-10, 11)
        assert kv.intertwining_residual(vessel, -1j, grid, 0.05) < 1e-5

    def test_zero_coupling_free_equation(self, zero_vessel):
        # S = I and y = u exactly; what remains is the centered-stencil
        # truncation (h^2/12)|omega^4 e^{omega x}| ~ 8e-8 at h = 1e-3
        grid = 1e-3 * np.arange(-10, 11)
        assert kv.intertwining_residual(zero_vessel, -1j, grid, 0.0) < 1e-7

    def test_order_under_refinement(self):
        vessel = kv.build_soliton(kv.SolitonSpec.from_c([1.2], [1.0]))
        res = {}
        for h in (2e-3, 1e-3):
            grid = 0.1 + h * np.arange(-8, 9)
            res[h] = kv.intertwining_residual(vessel, -1j, grid, 0.05)
        assert np.log2(res[2e-3] / res[1e-3]) > 1.9

    def test_equals_the_point_by_point_loop(self, discrete_12, quadrature_gauss):
        # the stacked state reproduces one evaluation per grid point exactly:
        # the 1/h^2 stencil would amplify any last-digit change a millionfold
        grid = 0.3 + 1e-3 * np.arange(-10, 11)
        for vessel in (discrete_12[1], quadrature_gauss[1]):
            omega = np.exp(0.5 * np.log(1j * -1j))
            y1, beta = [], []
            for x in grid:
                state = kv.evaluate(vessel, float(x), 0.05)
                u = np.array([np.exp(omega * x), -1j * omega * np.exp(omega * x)])
                y1.append((kv.eval_S(vessel, -1j, state) @ u)[0])
                beta.append(state.beta)
            y1, beta = np.array(y1), np.array(beta)
            h = grid[1] - grid[0]
            y1pp = (y1[2:] - 2.0 * y1[1:-1] + y1[:-2]) / h**2
            beta_p = (beta[2:] - beta[:-2]) / (2.0 * h)
            ref = np.abs(-y1pp + 2.0 * beta_p * y1[1:-1] + y1[1:-1]).max()
            assert kv.intertwining_residual(vessel, -1j, grid, 0.05) == ref

    def test_grid_validation(self, zero_vessel):
        with pytest.raises(ValueError):
            kv.intertwining_residual(zero_vessel, -1j, np.array([0.0, 0.1, 0.2]), 0.0)
        with pytest.raises(ValueError):
            kv.intertwining_residual(zero_vessel, -1j, np.array([0, 0.1, 0.15, 0.3, 0.4]), 0.0)


class TestMoments:
    def test_zero_coupling(self, zero_vessel):
        H = kv.moments(zero_vessel, kv.evaluate(zero_vessel, 0.3, 0.1), 5)
        assert np.array_equal(H, np.zeros((6, 2, 2)))

    def test_norm_bound(self, three_soliton):
        _, vessel = three_soliton
        state = kv.evaluate(vessel, 0.4, 0.1)
        H = kv.moments(vessel, state, 8)
        rho = np.max(np.abs(vessel.spectrum))
        bound = (np.linalg.norm(state.B, 2) ** 2 * np.linalg.norm(np.linalg.inv(state.M), 2))
        for n in range(9):
            assert np.linalg.norm(H[n], 2) <= bound * rho**n * (1 + 1e-12)

    def test_neumann_reconstruction(self, one_soliton):
        # S(lambda) - (I - sum_{n<=N} lambda^{-n-1} H_n) decays geometrically
        _, vessel = one_soliton
        lam = 3.0j  # |lambda| = 3 > 2 rho(A) = 2
        state = kv.evaluate(vessel, 0.2, 0.1)
        S = kv.eval_S(vessel, lam, state)
        H = kv.moments(vessel, state, 12)
        errs = []
        for N in (4, 8, 12):
            partial = np.eye(2, dtype=complex) - sum(
                H[n] / lam ** (n + 1) for n in range(N + 1)
            )
            errs.append(np.linalg.norm(S - partial))
        assert errs[1] < errs[0] * (1.0 / 3.0) ** 3
        assert errs[2] < errs[1] * (1.0 / 3.0) ** 3

    def test_nmax_validation(self, zero_vessel):
        with pytest.raises(ValueError):
            kv.moments(zero_vessel, kv.evaluate(zero_vessel, 0.0, 0.0), -1)


class TestMomentRecursion:
    def test_soliton_levels(self, one_soliton):
        _, vessel = one_soliton
        for n in range(4):
            assert kv.moment_recursion_residual(vessel, 0.3, 0.1, n, h=1e-4) < 1e-6

    def test_zero_coupling(self, zero_vessel):
        assert kv.moment_recursion_residual(zero_vessel, 0.3, 0.1, 0, h=1e-4) == 0.0

    def test_point_arrays_match_scalar_calls(self, one_soliton, rotated_three_soliton):
        xs = np.array([[-0.6, 0.2], [0.5, 0.9]])
        ts = np.array([0.1, -0.2])
        for vessel in (one_soliton[1], rotated_three_soliton):
            for n in (0, 2):
                res = kv.moment_recursion_residual(vessel, xs, ts, n, h=1e-3)
                assert res.shape == xs.shape
                for i in np.ndindex(xs.shape):
                    one = kv.moment_recursion_residual(vessel, xs[i], ts[i[1]], n, h=1e-3)
                    # the moments agree exactly; |.| of a complex array may
                    # round its last digit unlike the scalar hypot
                    assert res[i] == pytest.approx(one, rel=1e-15, abs=0)

    def test_order_two_in_step(self, one_soliton):
        # steps kept large enough that truncation dominates the eps/h^2
        # roundoff of the second-derivative stencil
        _, vessel = one_soliton
        r1 = kv.moment_recursion_residual(vessel, 0.3, 0.1, 1, h=2e-3)
        r2 = kv.moment_recursion_residual(vessel, 0.3, 0.1, 1, h=1e-3)
        assert kv.convergence_order(r1, r2) > 1.8


class TestGLKernels:
    def test_zero_coupling(self, zero_vessel):
        assert kv.gl_kernels(zero_vessel, 0.0, 1.0, 0.5) == (0.0, 0.0)

    def test_diagonal_is_beta(self, one_soliton):
        _, vessel = one_soliton
        rng = np.random.default_rng(47)
        for _ in range(20):
            x = rng.uniform(-2, 2)
            _, kval = kv.gl_kernels(vessel, 0.0, x, x)
            assert abs(kval - kv.evaluate(vessel, x, 0.0).beta) < 1e-12

    def test_omega_real_symmetric(self, three_soliton):
        _, vessel = three_soliton
        om_xy, _ = kv.gl_kernels(vessel, 0.0, 1.2, 0.4)
        om_yx, _ = kv.gl_kernels(vessel, 0.0, 0.4, 1.2)
        assert om_xy == pytest.approx(om_yx, abs=1e-10)


class TestGLResidual:
    def test_soliton_quadrature_limited(self, one_soliton):
        _, vessel = one_soliton
        assert kv.gl_residual(vessel, 0.0, 1.5, 0.7, quadrature_nodes=201) < 1e-8

    def test_zero_coupling_exact(self, zero_vessel):
        assert kv.gl_residual(zero_vessel, 0.0, 1.5, 0.7) == 0.0

    def test_node_doubling_fourth_order(self, one_soliton):
        _, vessel = one_soliton
        r1 = kv.gl_residual(vessel, 0.0, 1.5, 0.7, quadrature_nodes=101)
        r2 = kv.gl_residual(vessel, 0.0, 1.5, 0.7, quadrature_nodes=201)
        assert r1 / r2 > 12.0

    def test_input_validation(self, one_soliton):
        _, vessel = one_soliton
        with pytest.raises(ValueError):
            kv.gl_residual(vessel, 0.0, 0.7, 1.5)  # needs x > y
        with pytest.raises(ValueError):
            kv.gl_residual(vessel, 0.0, 1.5, 0.7, quadrature_nodes=200)  # even

    def test_imaginary_kernel_parts_are_refused(self):
        # B times e^{0.3 i x} turns K(x, s) and Omega(s, y) complex by the
        # phases e^{0.3 i (s - x)} and e^{0.3 i (y - s)}: both routines refuse
        base = kv.build_soliton(kv.SolitonSpec(k=[0.7, 1.1], b=[0.5, 0.5]))

        def operators(x, t):
            B, M, log_d = base.operators(x, t)
            return np.exp(0.3j * x) * B, M, log_d

        vessel = dataclasses.replace(base, operators=operators)
        with pytest.raises(kv.NumericalConsistencyError,
                           match=r"^Omega\(1\.5, 0\.7\) has imaginary residue -7\.541e-01 "
                                 r"\[at x=1\.5, t=0\.0\]$"):
            kv.gl_kernels(vessel, 0.0, 1.5, 0.7)
        with pytest.raises(kv.NumericalConsistencyError,
                           match=r"^Omega\(0\.0, 0\.7\) has imaginary residue"):
            kv.gl_residual(vessel, 0.0, 1.5, 0.7)


class TestFarField:
    """S, the moments H_0..H_3 and the kernels of the two-soliton k = [1, 2],
    b = [1, 1] far to the right, where its plain X fails the inverse-defect
    gate from x ~ 12, against 60 digits.  The reference scales X by
    E = diag(e^phi), not by the vessel's D = diag(max(1, e^phi))."""

    K, B, XS, LAM, Y = [1.0, 2.0], [1.0, 1.0], [20.0, 100.0, 400.0], 0.7 + 0.4j, 0.3

    @classmethod
    def _reference(cls, x):
        """(S(LAM), [H_0..H_3], K(x, Y), Omega(x, Y)) at t = 0 with x0 = 0."""
        with mpmath.workdps(60):
            k, b = [mpmath.mpf(v) for v in cls.K], [mpmath.mpf(v) for v in cls.B]
            n, x, y = len(k), mpmath.mpf(x), mpmath.mpf(cls.Y)
            G = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    G[i, j] = b[i] * b[j] / (k[i] + k[j])
            M = G + mpmath.diag([mpmath.exp(-2 * k[i] * x) for i in range(n)])
            Bt = mpmath.matrix([[b[i], 1j * k[i] * b[i]] for i in range(n)])  # E^-1 B
            Yt = mpmath.inverse(M) * Bt
            sigma1 = mpmath.matrix([[0, 1], [1, 0]])

            def left(f):  # Yt* diag(f(a_i)) Bt sigma1 for A = diag(a)
                return Yt.H * mpmath.diag([f(-1j * k[i] ** 2) for i in range(n)]) * Bt * sigma1

            S = mpmath.eye(2) - left(lambda a: 1 / (cls.LAM - a))
            H = [left(lambda a, m=m: a**m) for m in range(4)]
            K = -sum(Yt[i, 0] * mpmath.exp(k[i] * (y - x)) * b[i] for i in range(n))
            e = mpmath.matrix([mpmath.exp(k[i] * x) * b[i] for i in range(n)])
            f = mpmath.matrix([mpmath.exp(k[i] * y) * b[i] for i in range(n)])
            Omega = (e.T * mpmath.inverse(mpmath.eye(n) + G) * f)[0]
            return (np.array(S.tolist(), dtype=complex),
                    np.array([h.tolist() for h in H], dtype=complex), K, Omega)

    def test_values_are_finite_and_match_60_digits(self):
        vessel = kv.build_soliton(kv.SolitonSpec(k=self.K, b=self.B))
        state = kv.evaluate(vessel, np.array(self.XS), 0.0)
        S = kv.eval_S(vessel, self.LAM, state)
        H = kv.moments(vessel, state, 3)
        assert np.isfinite(S).all() and np.isfinite(H).all()
        for i, x in enumerate(self.XS):
            S_ref, H_ref, K_ref, omega_ref = self._reference(x)
            assert np.linalg.norm(S[i] - S_ref) <= 1e-10 * np.linalg.norm(S_ref), x
            for m in range(4):
                assert np.linalg.norm(H[m, i] - H_ref[m]) <= 1e-10 * np.linalg.norm(H_ref[m])
            if x < 400.0:
                omega, kval = kv.gl_kernels(vessel, 0.0, x, self.Y)
                assert np.isfinite(omega) and abs(omega - omega_ref) <= 1e-10 * abs(omega_ref)
            else:  # Omega(400, 0.3) ~ e^800 lies past the float range: refused there
                assert abs(omega_ref) > np.finfo(float).max
                with pytest.raises(kv.EvaluationError,
                                   match=r"^Omega\(400\.0, 0\.3\) overflowed") as exc:
                    kv.gl_kernels(vessel, 0.0, x, self.Y)
                assert (exc.value.x, exc.value.t) == (400.0, 0.0)
                kval = kv.gl_kernels(vessel, x, x, self.Y)[1]  # K does not read x0
            assert np.isfinite(kval) and abs(kval - K_ref) <= 1e-10 * abs(K_ref)
        # the scattering limit: S stops moving with x
        assert np.linalg.norm(S - S[-1], axis=(-2, -1)).max() <= 1e-6 * np.linalg.norm(S[-1])

    def test_kernel_overflow_names_its_node(self):
        # from x0 = 400 to x = 20, K(20, s) carries e^{2 (s - 20)}: the first
        # Simpson node, s = x0, leaves the float range
        vessel = kv.build_soliton(kv.SolitonSpec(k=self.K, b=self.B))
        with pytest.raises(kv.EvaluationError, match=r"^K\(20\.0, 400\.0\) overflowed") as exc:
            kv.gl_residual(vessel, 400.0, 20.0, self.Y)
        assert (exc.value.x, exc.value.t) == (400.0, 0.0)


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan"), float("inf")])
@pytest.mark.parametrize("routine", [
    lambda v, h: kv.evolution_residuals(v, 0.3, 0.1, h=h),
    lambda v, h: kv.ds_residual(v, 0.7 + 0.4j, 0.3, 0.1, h=h),
    lambda v, h: kv.moment_recursion_residual(v, 0.3, 0.1, 1, h=h),
    lambda v, h: kv.q_from_K_diag(v, 0.3, h=h),
], ids=["evolution_residuals", "ds_residual", "moment_recursion_residual", "q_from_K_diag"])
def test_finite_difference_step_must_be_positive_and_finite(one_soliton, routine, h):
    # h = 0 used to give NaN silently, h = nan an overflow error on B
    with pytest.raises(ValueError, match="step h must be positive and finite"):
        routine(one_soliton[1], h)


class TestQFromKDiag:
    def test_matches_analytic_soliton(self):
        spec = kv.SolitonSpec.from_c([1.0], [1.0])
        vessel = kv.build_soliton(spec)
        q_ref = float(kv.q_soliton(spec, 0.4, 0.0))
        rep = kv.q_from_K_diag(vessel, 0.4, h=1e-3, reference=q_ref)
        assert rep.sigma == 1
        assert abs(rep.value - q_ref) < 1e-4

    def test_order_two_in_step(self):
        spec = kv.SolitonSpec.from_c([1.0], [1.0])
        vessel = kv.build_soliton(spec)
        q_ref = float(kv.q_soliton(spec, 0.4, 0.0))
        e1 = abs(kv.q_from_K_diag(vessel, 0.4, h=2e-3, reference=q_ref).value - q_ref)
        e2 = abs(kv.q_from_K_diag(vessel, 0.4, h=1e-3, reference=q_ref).value - q_ref)
        assert kv.convergence_order(e1, e2) > 1.8

    def test_zero_coupling(self, zero_vessel):
        rep = kv.q_from_K_diag(zero_vessel, 0.4, h=1e-3)
        assert rep.value == 0.0
        assert rep.sigma == 1

    def test_sign_consistent_across_constructions(self, discrete_12, quadrature_gauss):
        for _, vessel in (discrete_12, quadrature_gauss):
            assert kv.q_from_K_diag(vessel, 0.3, h=1e-3).sigma == 1
