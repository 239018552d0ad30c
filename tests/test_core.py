import contextlib
import dataclasses
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdvessel as kv
from kdvessel import core, soliton, suite


def _last(a):
    """A points-first stack (m, ...) as the points-last view (..., m) that
    the operators contract asks for."""
    return np.moveaxis(a, 0, -1)


def _each_point(a, m):
    """One matrix a repeated at m points, points last."""
    return np.broadcast_to(np.asarray(a)[..., None], np.shape(a) + (m,))


class TestSLParameters:
    def test_exact_constants(self):
        assert np.array_equal(core.SIGMA1, [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(core.SIGMA2, [[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(core.GAMMA, [[0.0, 0.0], [0.0, 1j]])

    def test_sigma1_self_inverse(self):
        assert np.array_equal(core.SIGMA1 @ core.SIGMA1, np.eye(2))

    def test_sigma2_idempotent(self):
        assert np.array_equal(core.SIGMA2 @ core.SIGMA2, core.SIGMA2)

    def test_gamma_skew_hermitian(self):
        assert np.array_equal(core.GAMMA + core.GAMMA.conj().T, np.zeros((2, 2)))


class TestLinkage:
    def test_zero_coupling_gives_gamma(self):
        B = np.zeros((3, 2), dtype=complex)
        gs = core._gamma_star(B, B)  # Y = X^-1 B = 0
        assert np.array_equal(gs, core.GAMMA)

    def test_one_soliton_origin(self, one_soliton):
        # X(0,0) = 2, B(0,0) = (sqrt2, i sqrt2): (B* X^-1 B)_11 = 1, beta = -1
        _, vessel = one_soliton
        state = kv.evaluate(vessel, 0.0, 0.0)
        gs = state.gamma_star
        assert gs[1, 0] == pytest.approx(-1.0, abs=1e-14)
        assert gs[0, 1] == pytest.approx(1.0, abs=1e-14)
        assert state.beta == pytest.approx(-1.0, abs=1e-14)

    def test_bottom_right_entry_is_i(self, three_soliton):
        _, vessel = three_soliton
        rng = np.random.default_rng(11)
        for _ in range(10):
            state = kv.evaluate(vessel, rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
            assert abs(state.gamma_star[1, 1] - 1j) < 1e-12

    def test_shape_encodes_beta_and_beta_prime(self, three_soliton):
        # gamma_* = [[-i(beta'-beta^2), -beta], [beta, i]] with beta' checked
        # against a centered difference
        _, vessel = three_soliton
        x, t, h = 0.4, 0.2, 1e-5
        state = kv.evaluate(vessel, x, t)
        fd = (kv.evaluate(vessel, x + h, t).beta - kv.evaluate(vessel, x - h, t).beta) / (2 * h)
        assert state.gamma_star[0, 1] == pytest.approx(-state.beta, abs=1e-12)
        assert state.gamma_star[1, 0] == pytest.approx(state.beta, abs=1e-12)
        assert state.beta_prime == pytest.approx(fd, abs=1e-8)


class TestBeta:
    def test_zero_coupling(self):
        gs = core._gamma_star(np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex))
        beta, gate = core._beta_of_gamma_star(gs)
        assert beta == 0.0
        core._refuse(0.0, 0.0, gate)  # the residue gate flags nothing

    def test_matches_log_tau_derivative(self, three_soliton):
        # beta = -d/dx log tau, centered difference, order-2 convergence
        _, vessel = three_soliton
        rng = np.random.default_rng(3)
        worst = {1e-3: 0.0, 5e-4: 0.0}
        for _ in range(20):
            x, t = rng.uniform(-1.5, 1.5), rng.uniform(-0.3, 0.3)
            beta = kv.evaluate(vessel, x, t).beta
            for h in worst:
                fd = (kv.log_tau(vessel, x + h, t)[0] - kv.log_tau(vessel, x - h, t)[0]) / (2 * h)
                worst[h] = max(worst[h], abs(beta + fd))
        assert worst[1e-3] < 1e-4
        assert kv.convergence_order(worst[1e-3], worst[5e-4]) > 1.9

    def test_imaginary_residue_guard(self):
        B = np.array([[1.0, 1j]], dtype=complex)
        bad_Xinv = np.array([[1.0 + 0.5j]])  # not Hermitian: residue shows up
        _, gate = core._beta_of_gamma_star(core._gamma_star(B, bad_Xinv @ B))
        with pytest.raises(kv.NumericalConsistencyError, match=r"\[at x=0\.5, t=0\.1\]$"):
            core._refuse(0.5, 0.1, gate)


class TestTau:
    def test_zero_coupling_tau_is_one(self, zero_vessel):
        for x, t in [(0.0, 0.0), (1.3, -0.4), (-2.0, 0.7)]:
            logabs, sign = kv.log_tau(zero_vessel, x, t)
            assert sign == 1.0
            assert np.exp(logabs) == pytest.approx(1.0, abs=1e-14)

    def test_one_soliton_origin(self, one_soliton):
        _, vessel = one_soliton
        assert kv.evaluate(vessel, 0.0, 0.0).tau == pytest.approx(2.0, abs=1e-14)

    def test_three_soliton_origin_brute_force(self, three_soliton, plain_copy):
        # rule-of-Sarrus determinant of the explicitly assembled 3x3 matrix
        spec, vessel = three_soliton
        k, b = spec.k, spec.b.real
        X = np.eye(3) + np.outer(b, b) / (k[:, None] + k[None, :])
        sarrus = (
            X[0, 0] * X[1, 1] * X[2, 2]
            + X[0, 1] * X[1, 2] * X[2, 0]
            + X[0, 2] * X[1, 0] * X[2, 1]
            - X[0, 2] * X[1, 1] * X[2, 0]
            - X[0, 0] * X[1, 2] * X[2, 1]
            - X[0, 1] * X[1, 0] * X[2, 2]
        )
        for v in (vessel, plain_copy(vessel)):
            logabs, sign = kv.log_tau(v, 0.0, 0.0)
            val = sign * np.exp(logabs)
            assert val == pytest.approx(sarrus, rel=1e-13)
            assert val == pytest.approx(4.0 + 362.0 / 900.0, rel=1e-13)

    def test_overflow_raises_with_log_route(self, one_soliton, plain_copy):
        # the plain X overflows; the vessel's scaled pair is the log route
        _, vessel = one_soliton
        with pytest.raises(kv.EvaluationError):
            kv.log_tau(plain_copy(vessel), 400.0, 0.0)
        logabs, sign = kv.log_tau(vessel, 400.0, 0.0)
        assert sign == 1.0
        # tau = 1 + e^{2x} here, so log tau ~ 2x
        assert logabs == pytest.approx(800.0, abs=1e-9)

    def test_log_tau_matches_tau_in_normal_regime(self, three_soliton, plain_copy):
        spec, vessel = three_soliton
        for v in (vessel, plain_copy(vessel)):
            logabs, sign = kv.log_tau(v, 0.8, -0.2)
            assert sign == 1.0
            assert logabs == pytest.approx(np.log(kv.tau_cauchy_3(spec, 0.8, -0.2)), abs=1e-12)


def _complex_lyapunov_norm(vessel, B, X):
    """||A X + X A* + B sigma1 B*||_F per point in complex arithmetic, for a
    diagonal A: one product (a_i + conj(a_j)) X_ij and the complex
    B sigma1 B*, the reference for the real-arithmetic residual."""
    a = vessel.A_diag
    R = (a[:, None] + a.conj()) * X + B @ core.SIGMA1 @ np.swapaxes(B, -1, -2).conj()
    return np.linalg.norm(R, axis=(-2, -1))


def _shifted_vessel(bump=0.0):
    """n = 3 with A = diag(a), Re a < 0, a complex B(x, t) and X solving
    A X + X A* + B sigma1 B* = 0 entry by entry; ``bump`` is added to X_01
    and conj(bump) to X_10."""
    a = np.array([-0.3 - 1.0j, -0.5 + 2.0j, -0.2 - 3.5j])

    def operators(x, t):
        e = np.exp(1j * (np.multiply.outer(x, [1.0, 0.5, 2.0])
                         + np.multiply.outer(t, [0.3, -1.0, 0.7])))
        B = np.stack([e, (1.0 + 0.5j) * e.conj()], axis=-1)
        X = -(B @ core.SIGMA1 @ np.swapaxes(B, -1, -2).conj()) / (a[:, None] + a.conj())
        X[..., 0, 1] += bump
        X[..., 1, 0] += np.conj(bump)
        return _last(B), _last(X), 0.0

    return kv.FiniteVessel(n=3, A=np.diag(a), operators=operators,
                           X0=np.eye(3, dtype=complex), kind="custom")


def _exact_lyapunov_norm(a, B, X):
    """||(a_i + conj(a_j)) X_ij + (B sigma1 B*)_ij||_F of one point, the
    float inputs taken exactly and the sums carried to 60 digits."""
    with mpmath.workdps(60):
        total = 0
        for i, j in np.ndindex(X.shape):
            r = ((mpmath.mpc(a[i]) + mpmath.conj(a[j])) * mpmath.mpc(X[i, j])
                 + mpmath.mpc(B[i, 0]) * mpmath.conj(B[j, 1])
                 + mpmath.mpc(B[i, 1]) * mpmath.conj(B[j, 0]))
            total += abs(r) ** 2
        return float(mpmath.sqrt(total))


_PARITY_VESSELS = {
    "discrete real": lambda: kv.build_discrete_vessel(
        kv.DiscreteSpectrum(k=np.array([0.7, 1.1, 1.6, 2.3]), b=np.array([0.3, 0.2, 0.25, 0.1]))),
    "discrete complex": lambda: kv.build_discrete_vessel(
        kv.DiscreteSpectrum(k=np.array([0.7, 1.1, 1.6, 2.3]),
                            b=0.2 * np.exp(1j * np.array([0.1, 0.8, 1.5, 2.2])))),
    "quadrature 64": lambda: kv.build_quadrature_vessel(
        kv.gauss_legendre_spectrum(1.2, 64, lambda s: 0.5 * np.exp(-(s**2)))),
    "quadrature 256": lambda: kv.build_quadrature_vessel(
        kv.gauss_legendre_spectrum(1.2, 256, lambda s: 0.5 * np.exp(-(s**2)))),
    "3-soliton": lambda: kv.build_soliton(kv.SolitonSpec.from_c([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])),
    "real part of A": _shifted_vessel,
    # not a vessel: every term of the residual is far from zero
    "real part of A, X bumped": lambda: _shifted_vessel(bump=0.1 + 0.2j),
}


class TestLyapunov:
    @pytest.mark.parametrize("case", list(_PARITY_VESSELS))
    def test_real_branch_matches_the_complex_formula(self, case):
        # at the self-check's 50 points, in stacks of 5
        vessel = _PARITY_VESSELS[case]()
        xs, ts = np.random.default_rng(0).uniform([-2.0, -0.5], [2.0, 0.5], size=(50, 2)).T
        weights = core._lyapunov_weights(vessel.A_diag)
        for s in range(0, 50, 5):
            B, M, _ = vessel.scaled(xs[s:s + 5], ts[s:s + 5])
            res, norm_m = core._lyapunov_norms(vessel.A, weights, _last(B), _last(M))
            diff = np.abs(res - _complex_lyapunov_norm(vessel, B, M))
            assert np.all(diff <= 1e-15 * (1.0 + norm_m))
        if case == "real part of A":  # every term of the real branch runs
            assert weights[0] is not None and np.iscomplexobj(M)
            core.lyapunov_self_check(vessel)

    def test_real_branch_past_the_range_of_the_plain_norms(self):
        # through lyapunov_residual: the plain X of k = [7, 7.5] passes
        # 1e154.  |a_i + conj(a_j)| reaches 7.25 here, and A X + X A* and
        # B sigma1 B* cancel, so the tolerance takes their size.  The
        # reference is the residual of the same scaled floats in 60-digit
        # arithmetic: the complex formula is off from it by up to 1.1e-14
        vessel = kv.build_soliton(kv.SolitonSpec(k=[7.0, 7.5], b=[1.0, 1.0]))
        xs, ts = np.random.default_rng(0).uniform([-2.0, -0.5], [2.0, 0.5], size=(50, 2)).T
        B, X = vessel.plain(xs, ts)
        assert np.abs(X).max() > 1e154
        e = core._exponent(np.diagonal(X, axis1=-2, axis2=-1), -1) // 2
        B, X = B * np.ldexp(1.0, -e)[:, None, None], X * np.ldexp(1.0, -2 * e)[:, None, None]
        a = vessel.A_diag
        scale = np.ldexp(1.0, -2 * e) + np.linalg.norm(X, axis=(-2, -1))
        tol = 1e-15 * (scale + np.linalg.norm((a[:, None] + a.conj()) * X, axis=(-2, -1))) / scale
        exact = [_exact_lyapunov_norm(a, b, x) for b, x in zip(B, X)] / scale
        assert np.all(np.abs(kv.lyapunov_residual(vessel, xs, ts) - exact) <= tol)

    def test_self_check_sees_a_term_real_couplings_skip(self):
        # b0 of a real-coupling trigonometric vessel is real, so the real
        # part of B sigma1 B* is exactly zero and left out; an imaginary
        # part on one generator must bring it back
        vessel = kv.build_discrete_vessel(
            kv.DiscreteSpectrum(k=np.array([0.8, 1.9, 2.7]), b=np.array([0.5, 0.4, 0.3])))

        def operators(x, t):
            B, X, log_d = vessel.operators(x, t)
            B[1, 0] += 1e-3j
            return B, X, log_d

        with pytest.raises(kv.InvalidSpecError, match="discrete self-check failed"):
            core.lyapunov_self_check(dataclasses.replace(vessel, operators=operators))

    @pytest.mark.parametrize("bump", [1e-3, 1e-3j], ids=["real", "imaginary"])
    def test_self_check_sees_a_bumped_complex_m(self, bump):
        vessel = _PARITY_VESSELS["discrete complex"]()

        def operators(x, t):
            B, X, log_d = vessel.operators(x, t)
            assert np.iscomplexobj(X)
            X[0, 2] += bump
            X[2, 0] += np.conj(bump)
            return B, X, log_d

        with pytest.raises(kv.InvalidSpecError, match="discrete self-check failed"):
            core.lyapunov_self_check(dataclasses.replace(vessel, operators=operators))

    def test_self_check_sees_a_bump_with_a_real_part_of_a(self):
        with pytest.raises(kv.InvalidSpecError, match="custom self-check failed"):
            core.lyapunov_self_check(_shifted_vessel(bump=1e-3j))

    def test_soliton_identity(self, three_soliton):
        _, vessel = three_soliton
        rng = np.random.default_rng(7)
        for _ in range(20):
            res = kv.lyapunov_residual(vessel, rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
            assert res < 1e-12

    def test_discrete_identity(self, discrete_12):
        _, vessel = discrete_12
        assert kv.lyapunov_residual(vessel, 0.7, 0.3) < 1e-12

    def test_finite_past_the_range_of_the_plain_norms(self):
        # entries of X past 1e154 overflow the plain squares of ||X||_F and
        # of ||A X + X A* + B sigma1 B*||_F; the residual must stay finite
        rng = np.random.default_rng(0)
        xs, ts = rng.uniform([-2.0, -0.5], [2.0, 0.5], size=(50, 2)).T
        vessel = kv.build_soliton(kv.SolitonSpec(k=[7.0, 7.5], b=[1.0, 1.0]))
        assert np.abs(vessel.X(xs, ts)).max() > 1e154
        res = kv.lyapunov_residual(vessel, xs, ts)
        assert np.all(res < 1e-12)

    def test_detector_sensitivity(self, discrete_12):
        # off-diagonal corruption is visible; a diagonal bump is annihilated
        # by A X + X A* when A is diagonal skew-Hermitian, so the detector
        # test must perturb off the diagonal
        _, vessel = discrete_12
        X = vessel.X(0.7, 0.3)
        B = vessel.B(0.7, 0.3)
        A = vessel.A

        def res_of(Xc):
            r = A @ Xc + Xc @ A.conj().T + B @ core.SIGMA1 @ B.conj().T
            return np.linalg.norm(r) / (1.0 + np.linalg.norm(Xc))

        X_off = X.copy()
        X_off[0, 1] += 1e-3
        X_off[1, 0] += 1e-3
        assert res_of(X_off) > 1e-4

        X_diag = X.copy()
        X_diag[0, 0] += 1e-3
        assert res_of(X_diag) == pytest.approx(res_of(X), abs=1e-15)

    def test_non_diagonal_generator(self, three_soliton, rotated_three_soliton):
        # the residual takes the general A X and X A* products
        _, vessel = three_soliton
        rotated = rotated_three_soliton
        rng = np.random.default_rng(5)
        rng.normal(size=(2, 3, 3))  # the draws of the fixture's unitary
        assert rotated.A_diag is None
        xs, ts = rng.uniform(-2, 2, 20), rng.uniform(-0.5, 0.5, 20)
        res = kv.lyapunov_residual(rotated, xs, ts)
        assert res.shape == (20,) and np.all(res < 1e-12)
        core.lyapunov_self_check(rotated)
        # complex X: near x = 0.7, t = 0.3 (cond X ~ 7e8) the rotation's
        # rounding fails the inverse defect, before the tau residue check
        with pytest.raises(kv.EvaluationError, match="ill-conditioned"):
            kv.evaluate_fields(rotated, np.array([0.0, 0.72]), 0.3)
        xs, ts = 0.5 * xs, 0.5 * ts
        np.testing.assert_allclose(kv.evaluate_fields(rotated, xs, ts).beta,
                                   kv.evaluate_fields(vessel, xs, ts).beta, atol=1e-12)
        # a corruption of X is detected, at the size the plain products give
        bad = kv.FiniteVessel(
            n=3, A=rotated.A,
            operators=lambda x, t: (_last(rotated.B(x, t)),
                                    _last(rotated.X(x, t) + 1e-3 * np.eye(3)[[1, 0, 2]]), 0.0),
            X0=rotated.X0, kind="rotated",
        )
        X, B, A = bad.X(0.1, 0.0), bad.B(0.1, 0.0), bad.A
        r = A @ X + X @ A.conj().T + B @ core.SIGMA1 @ B.conj().T
        expected = np.linalg.norm(r) / (1.0 + np.linalg.norm(X))
        assert expected > 1e-4
        assert kv.lyapunov_residual(bad, 0.1, 0.0) == pytest.approx(expected, rel=1e-12)


class TestNormalization:
    def test_shipped_generators_are_skew_hermitian(self, three_soliton, discrete_12,
                                                   quadrature_gauss):
        for _, vessel in (three_soliton, discrete_12, quadrature_gauss):
            assert np.max(np.abs(vessel.A + vessel.A.conj().T)) == 0.0

    def test_skew_hermitian_generator(self, three_soliton, discrete_12):
        for _, vessel in (three_soliton, discrete_12):
            assert kv.normalization_residual(vessel, 0.4, 0.1) < 1e-12

    def test_zero_coupling_exact(self, zero_vessel):
        assert kv.normalization_residual(zero_vessel, 0.3, 0.2) == 0.0

    def test_one_soliton_origin_explicit(self, one_soliton):
        # sigma1 . [[1, i], [-i, 1]] has trace -i + i = 0
        _, vessel = one_soliton
        M = np.array([[1.0, 1j], [-1j, 1.0]])
        assert abs(np.trace(core.SIGMA1 @ M)) == 0.0
        assert kv.normalization_residual(vessel, 0.0, 0.0) < 1e-14


class TestEvolutionResiduals:
    def test_soliton_small_amplitude(self):
        vessel = kv.build_soliton(kv.SolitonSpec.from_c([0.6, 0.9], [0.25, 0.25]))
        rep = kv.evolution_residuals(vessel, 0.25, 0.12, h=1e-3)
        assert rep.max_differential() < 1e-6
        assert kv.lyapunov_residual(vessel, 0.25, 0.12) < 1e-12
        assert kv.normalization_residual(vessel, 0.25, 0.12) < 1e-12

    def test_order_two(self, three_soliton):
        _, vessel = three_soliton
        rep_h = kv.evolution_residuals(vessel, 0.3, 0.1, h=1e-3)
        rep_h2 = kv.evolution_residuals(vessel, 0.3, 0.1, h=5e-4)
        for a, b in zip((rep_h.r_DB, rep_h.r_DX, rep_h.r_DXt),
                        (rep_h2.r_DB, rep_h2.r_DX, rep_h2.r_DXt)):
            assert 3.5 < a / b < 4.5

    def test_zero_coupling_everything_constant(self, zero_vessel):
        rep = kv.evolution_residuals(zero_vessel, 0.5, 0.2, h=1e-3)
        assert rep.max_differential() < 1e-14
        assert kv.lyapunov_residual(zero_vessel, 0.5, 0.2) < 1e-14

    def test_rejects_nonpositive_step(self, zero_vessel):
        with pytest.raises(ValueError):
            kv.evolution_residuals(zero_vessel, 0.0, 0.0, h=0.0)


class TestInertia:
    def test_identity(self):
        assert kv.inertia(np.eye(3)) == (3, 0)
        assert core.inertia_label(np.eye(3)) == "dissipative"

    def test_soliton_states_positive(self, three_soliton):
        # box kept narrow: once the eigenvalue spread passes 1e12 the
        # relative cutoff rightly refuses to classify the smallest one
        _, vessel = three_soliton
        rng = np.random.default_rng(13)
        for _ in range(10):
            X = vessel.X(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
            assert kv.inertia(X) == (3, 0)

    def test_indefinite(self):
        assert kv.inertia(np.diag([1.0, -1.0])) == (1, 1)
        assert core.inertia_label(np.diag([1.0, -1.0])) == "pontryagin(1)"

    def test_near_singular_rejected(self):
        with pytest.raises(kv.ClassificationError):
            kv.inertia(np.diag([1.0, 1e-15]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(kv.NumericalConsistencyError):
            kv.inertia(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestEvaluate:
    def test_inverse_defect(self, three_soliton):
        _, vessel = three_soliton
        state = kv.evaluate(vessel, 0.5, 0.1)
        assert np.linalg.norm(state.M @ state.Y - state.B) < 1e-10 * np.linalg.norm(state.B)

    def test_asymmetry_guard(self):
        vessel = kv.FiniteVessel(
            n=2,
            A=np.diag([-1j, -4j]),
            operators=lambda x, t: (np.zeros((2, 2, x.size), dtype=complex),
                                    _each_point([[1.0, 1e-6], [0.0, 1.0]], x.size), 0.0),
            X0=np.eye(2, dtype=complex),
            kind="soliton",
        )
        with pytest.raises(kv.NumericalConsistencyError):
            kv.evaluate(vessel, 0.0, 0.0)


# m = 5 != n = 2 points for the contract tests; the self-check reads 50
_FIVE = np.linspace(-1.0, 1.0, 5)


class TestOperatorsContract:
    """operators(x, t) gets the flat points and returns points-last stacks;
    the operator read refuses any other shape."""

    @staticmethod
    def _points_first_vessel():
        # the shapes of a contract where the points came first: (m, n, 2)
        # and (m, n, n)
        def operators(x, t):
            return (np.zeros((x.size, 2, 2), dtype=complex),
                    np.broadcast_to(np.eye(2), (x.size, 2, 2)), 0.0)

        return kv.FiniteVessel(n=2, A=np.diag([-1j, -4j]), operators=operators,
                               X0=np.eye(2, dtype=complex), kind="custom")

    @pytest.mark.parametrize("call, m", [
        (lambda v: v.scaled(_FIVE, 0.0), 5),
        (lambda v: v.plain(_FIVE, 0.0), 5),
        *((lambda v, fn=fn: fn(v, _FIVE, 0.0), 5)
          for fn in (kv.evaluate, kv.evaluate_fields, kv.log_tau, kv.lyapunov_residual,
                     kv.normalization_residual)),
        (core.lyapunov_self_check, 50),
    ], ids=["scaled", "plain", "evaluate", "evaluate_fields", "log_tau", "lyapunov_residual",
            "normalization_residual", "self-check"])
    def test_points_first_stacks_are_refused(self, call, m):
        with pytest.raises(kv.InvalidSpecError,
                           match=re.escape(f"coupling B has shape ({m}, 2, 2), "
                                           f"expected (2, 2, {m})")):
            call(self._points_first_vessel())

    def test_operators_get_flat_points(self, three_soliton):
        # any broadcast shape of points reaches operators as two 1-D arrays
        _, base = three_soliton
        seen = []

        def operators(x, t):
            seen.append((x.shape, t.shape))
            return base.operators(x, t)

        vessel = dataclasses.replace(base, operators=operators)
        for x, t, m in ((0.3, 0.1, 1), (np.zeros((2, 3)), 0.5, 6),
                        (np.zeros((4, 1)), np.zeros(3), 12)):
            kv.evaluate(vessel, x, t)
            assert seen[-1] == ((m,), (m,))


class TestStandardConstruction:
    def test_zero_initial_coupling(self):
        n = 3
        A = np.diag(-1j * np.array([1.0, 4.0, 9.0]))
        grid = np.linspace(-1.0, 1.0, 21)
        Bs, Xs = kv.integrate_standard_construction(
            A, np.zeros((n, 2), dtype=complex), np.eye(n, dtype=complex), 0.0, grid
        )
        assert Bs.shape == (grid.size, n, 2) and Xs.shape == (grid.size, n, n)
        assert np.array_equal(Bs, np.zeros_like(Bs))
        assert np.array_equal(Xs, np.broadcast_to(np.eye(n), Xs.shape))

    def test_recovers_soliton_closed_form(self, one_soliton):
        spec, closed = one_soliton
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        Bs, Xs = kv.integrate_standard_construction(
            closed.A, closed.B(0.0, 0.0), closed.X(0.0, 0.0), 0.0, grid
        )
        B, X = closed.plain(grid, 0.0)
        assert np.abs(Bs - B).max() < 1e-8
        assert np.abs(Xs - X).max() < 1e-8

    def test_derivative_recovery_order_two(self, one_soliton):
        # centered difference of the X table recovers B sigma2 B*
        spec, closed = one_soliton
        errs = {}
        for h in (2e-3, 1e-3):
            grid = np.arange(-0.5, 0.5 + 1e-12, h)
            Bs, Xs = kv.integrate_standard_construction(
                closed.A, closed.B(-0.5, 0.0),
                closed.X(-0.5, 0.0), -0.5, grid,
            )
            i = len(grid) // 2
            dX = (Xs[i + 1] - Xs[i - 1]) / (2 * h)
            errs[h] = np.linalg.norm(dX - Bs[i] @ core.SIGMA2 @ Bs[i].conj().T)
        assert 3.0 < errs[2e-3] / errs[1e-3] < 5.0

    def test_lyapunov_precondition_checked(self):
        A = np.diag([-1j])
        # B0 sigma1 B0* = 2 Re(a conj(c)) = 1 != 0 here
        B0 = np.array([[1.0, 0.5]], dtype=complex)
        with pytest.raises(kv.InvalidSpecError):
            kv.integrate_standard_construction(A, B0, np.eye(1, dtype=complex),
                                               0.0, np.linspace(0, 1, 11))

    @pytest.mark.parametrize("x0, grid, first_bad", [
        # fine steps from x0 hold the residual below 1e-8; the coarse step
        # to x = 1 breaks it there and at every point after
        (-0.5, np.concatenate([np.linspace(-0.5, 0.5, 1001), [1.0, 1.5]]), 1.0),
        # integrating outward both ways, the grid's first failing point
        # is named
        (0.0, np.concatenate([[-1.5, -1.0], np.linspace(-0.5, 0.5, 1001), [1.0]]), -1.5),
    ])
    def test_coarse_step_names_first_failing_grid_point(self, x0, grid, first_bad):
        closed = kv.build_soliton(kv.SolitonSpec.from_c([1.0, 2.0], [1.0, 1.0]))
        with pytest.raises(kv.EvaluationError, match="above 1e-8 during construction") as err:
            kv.integrate_standard_construction(closed.A, closed.B(x0, 0.0),
                                               closed.X(x0, 0.0), x0, grid)
        assert (err.value.x, err.value.t) == (first_bad, 0.0)

    def test_oracle_sees_the_soliton_gram_diagonal(self, monkeypatch):
        # the build's Lyapunov self-check weighs the diagonal of M by
        # a_i + conj(a_i) = 0, so a soliton with a wrong Gram diagonal builds;
        # X_ii' = |B_i1|^2 makes the construction oracle of criterion 4 see it
        gram = soliton._gram

        def scaled_diagonal(spec):
            G = np.array(gram(spec))
            G[np.diag_indices_from(G)] *= 1.5
            return G

        monkeypatch.setattr(soliton, "_gram", scaled_diagonal)
        kv.build_soliton(kv.SolitonSpec.from_c([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]))
        results = {r.check: r for r in suite.check_evolution_conditions("quick", None)}
        assert not results["evolution_conditions.construction[soliton]"].passed
        assert not results["evolution_conditions.construction_order[soliton]"].passed
        for name in ("discrete", "quadrature"):
            assert results[f"evolution_conditions.construction[{name}]"].passed


# ---------------------------------------------------------------------------
# the stacked evaluator against the one-point evaluator
# ---------------------------------------------------------------------------

def _distinct(draw, n, lo, hi, gap):
    """n sorted draws from [lo, hi] at least ``gap`` apart (evenly spaced if not)."""
    vals = sorted(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
    if any(b - a < gap for a, b in zip(vals, vals[1:])):
        vals = [lo + gap * i for i in range(n)]
    return np.array(vals)


@st.composite
def soliton_vessels(draw):
    n = draw(st.integers(1, 3))
    k = _distinct(draw, n, 0.5, 2.0, 0.2)
    b = np.array(draw(st.lists(st.floats(0.3, 1.5), min_size=n, max_size=n)))
    return kv.build_soliton(kv.SolitonSpec(k=k, b=b.astype(complex)))


@st.composite
def discrete_vessels(draw, complex_b):
    n = draw(st.integers(2 if complex_b else 1, 4))
    k = _distinct(draw, n, 0.7, 2.5, 0.1)
    mod = np.array(draw(st.lists(st.floats(0.05, 0.25), min_size=n, max_size=n)))
    # relative phases 0.7 apart keep b_i conj(b_j), and so X, complex
    phase = draw(st.floats(-np.pi, np.pi)) + 0.7 * np.arange(n)
    b = mod * np.exp(1j * phase) if complex_b else mod.astype(complex)
    return kv.build_discrete_vessel(kv.DiscreteSpectrum(k=k, b=b))


@st.composite
def quadrature_vessels(draw):
    n = draw(st.sampled_from([8, 16, 32]))
    amp = draw(st.floats(0.2, 0.6))
    spec = kv.gauss_legendre_spectrum(draw(st.floats(0.8, 1.5)), n,
                                      lambda s: amp * np.exp(-(s**2)))
    return kv.build_quadrature_vessel(spec)


def _points(draw, count, x_range, t_range):
    xs = draw(st.lists(st.floats(*x_range), min_size=count, max_size=count))
    ts = draw(st.lists(st.floats(*t_range), min_size=count, max_size=count))
    return np.array(xs), np.array(ts)


def _assert_batch_matches_pointwise(vessel, xs, ts):
    fields = kv.evaluate_fields(vessel, xs, ts)
    assert fields.beta.shape == xs.shape
    for i, (x, t) in enumerate(zip(xs, ts)):
        state = kv.evaluate(vessel, x, t)
        assert fields.beta[i] == pytest.approx(state.beta, rel=1e-12, abs=1e-14)
        assert fields.beta_prime[i] == pytest.approx(state.beta_prime, rel=1e-12, abs=1e-14)
        assert fields.q[i] == 2.0 * fields.beta_prime[i]
        assert fields.tau[i] == pytest.approx(state.tau, rel=1e-12)


class TestEvaluateFields:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_soliton_batch_matches_pointwise(self, data):
        vessel = data.draw(soliton_vessels())
        # moderate phases |k x + k^3 t| <= 5.4 keep the inverse defect far
        # below the evaluator's bound
        _assert_batch_matches_pointwise(vessel, *_points(data.draw, 7, (-1.5, 1.5), (-0.3, 0.3)))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), complex_b=st.booleans())
    def test_discrete_batch_matches_pointwise(self, data, complex_b):
        vessel = data.draw(discrete_vessels(complex_b))
        assert np.iscomplexobj(vessel.X(0.3, 0.1)) == complex_b
        _assert_batch_matches_pointwise(vessel, *_points(data.draw, 7, (-1.5, 1.5), (-0.3, 0.3)))

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_quadrature_batch_matches_pointwise(self, data):
        vessel = data.draw(quadrature_vessels())
        _assert_batch_matches_pointwise(vessel, *_points(data.draw, 5, (-1.5, 1.5), (-0.3, 0.3)))

    def test_batch_not_a_multiple_of_the_chunk(self, quadrature_64):
        per_chunk = core._CHUNK_ENTRIES // 64**2
        xs = np.linspace(-1.0, 1.0, 37)
        assert xs.size % per_chunk != 0
        _assert_batch_matches_pointwise(quadrature_64, xs, np.full(xs.size, 0.05))

    def test_broadcasts_grid_shapes(self, discrete_12):
        _, vessel = discrete_12
        X, T = np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-0.2, 0.2, 3), indexing="ij")
        fields = kv.evaluate_fields(vessel, X, T)
        assert fields.beta.shape == fields.tau.shape == (5, 3)
        assert fields.beta[4, 2] == kv.evaluate_fields(vessel, X[4, 2], T[4, 2]).beta

    def test_singular_point_is_named(self):
        vessel = _gram_vessel(lambda x: x, lambda x: x)  # X = [[1, x], [x, 1]]
        with pytest.raises(kv.EvaluationError, match="singular") as exc:
            kv.evaluate_fields(vessel, np.array([0.0, 0.25, 1.0, 0.5]), 0.0)
        assert (exc.value.x, exc.value.t) == (1.0, 0.0)

    def test_asymmetry_guard_fires_inside_a_batch(self):
        vessel = _gram_vessel(lambda x: np.where(x == 0.5, 1e-6, 0.0), lambda x: 0.0 * x)
        kv.evaluate_fields(vessel, np.array([0.0, 0.25]), 0.0)
        with pytest.raises(kv.NumericalConsistencyError,
                           match=r"asymmetry .* \[at x=0\.5, t=0\.0\]$") as exc:
            kv.evaluate_fields(vessel, np.array([0.0, 0.25, 0.5, 0.75]), 0.0)
        assert (exc.value.x, exc.value.t) == (0.5, 0.0)


# ---------------------------------------------------------------------------
# the probe certificate of core._probe_solve against the dense inverse
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def aim1_quadrature():
    """The indefinite Gaussian-density quadrature vessel (s_max 1.5,
    amplitude 0.8; tau < 0 on a third of [-6, 6] x [-1, 1]) for n nodes."""
    built = {}

    def build(n):
        if n not in built:
            spec = kv.gauss_legendre_spectrum(1.5, n, lambda s: 0.8 * np.exp(-(s**2)))
            built[n] = kv.build_quadrature_vessel(spec)
        return built[n]

    return build


def _phase_rotated(vessel, phases):
    """The vessel in the basis U = diag(e^{i phases}): M and B become complex,
    while A, D, the conditioning of M and B* X^-1 B stay as they are."""
    u = np.exp(1j * np.asarray(phases))

    def operators(x, t):
        B, M, log_d = vessel.operators(x, t)
        return u[:, None, None] * B, u[:, None, None] * M * u.conj()[:, None], log_d

    return kv.FiniteVessel(n=vessel.n, A=vessel.A, operators=operators,
                           X0=u[:, None] * vessel.X0 * u.conj(), kind="rotated")


@pytest.fixture(scope="module")
def close_soliton_12():
    """Twelve solitons with close wavenumbers, real and phase-rotated to a
    complex M, and 1,500 seeded points of [-8, 8] x [-0.5, 0.5], about a
    fifth of which the gate refuses."""
    vessel = kv.build_soliton(kv.SolitonSpec(k=np.linspace(0.8, 1.4, 12), b=np.ones(12)))
    rng = np.random.default_rng(12)
    points = rng.uniform(-8.0, 8.0, 1500), rng.uniform(-0.5, 0.5, 1500)
    return {"real": vessel, "complex": _phase_rotated(vessel, 0.7 * np.arange(12))}, points


@pytest.fixture(scope="module")
def complex_discrete_12():
    """A discrete vessel with n = 12 and complex couplings (relative phases
    0.7 apart), so M is complex and well-conditioned on [-8, 8] x [-0.5, 0.5]."""
    b = 0.3 * np.exp(1j * (0.3 + 0.7 * np.arange(12)))
    return kv.build_discrete_vessel(kv.DiscreteSpectrum(k=np.linspace(0.8, 1.4, 12), b=b))


def _gate_readings(M):
    """(est, dense defect, gate) of a stack M as core._probe_solve reads it."""
    n = M.shape[-1]
    P = core._probe_block(n)
    est = 0.5 * np.linalg.norm(np.linalg.solve(M, M @ P) - P, axis=(-2, -1))
    dense = np.linalg.norm(np.linalg.inv(M) @ M - np.eye(n), axis=(-2, -1))
    return est, dense, core._INVERSE_TOL * np.sqrt(n)


def _dense_fields(vessel, xs, ts):
    """beta, q, log|tau| and sign from the explicit inverse, Y = inv(M) B
    refined once (in real arithmetic for a real M), with M as evaluate reads
    it: the reference the probe route is held to."""
    B, M, _ = vessel.scaled(xs, ts)
    real = not np.iscomplexobj(M)
    Minv = np.linalg.inv(M)
    Bv = np.ascontiguousarray(B).view(float) if real else B
    Y = Minv @ Bv
    Y = Y + Minv @ (Bv - M @ Y)
    if real:
        Y = Y.view(complex)
    m00, m01, m10 = (np.einsum("...k,...k->...", B[..., i].conj(), Y[..., j])
                     for i, j in ((0, 0), (0, 1), (1, 0)))
    beta = -m00.real
    sign, logdet = np.linalg.slogdet(M)
    return beta, 2.0 * (beta**2 + (1j * (m01 - m10)).real), logdet, sign


def _one_point_errors(fn, vessel, xs, ts):
    """{index: message} of the points whose one-point fn(vessel, x, t) raises."""
    errors = {}
    for i, (x, t) in enumerate(zip(xs.tolist(), ts.tolist())):
        try:
            fn(vessel, x, t)
        except (kv.EvaluationError, kv.NumericalConsistencyError) as exc:
            errors[i] = str(exc)
    return errors


class TestProbeCertificate:
    """Each stack makes one solve per point and runs the dense inverse
    defect only where the probe certificate cannot clear the point: it
    refuses the points the dense gate refuses and keeps the values of the
    explicit inverse."""

    @pytest.mark.parametrize("fn, kind, pair", [
        (kv.evaluate_fields, "real", "scaled"),
        (kv.evaluate_fields, "complex", "scaled"),
        (kv.evaluate, "real", "scaled"),
        (kv.evaluate, "real", "plain"),
    ])
    def test_refusals_are_the_dense_gates(self, close_soliton_12, plain_copy, fn, kind, pair):
        # "plain" is the vessel's plain copy (D = I), whose M is the plain X
        vessels, (xs, ts) = close_soliton_12
        vessel = vessels[kind] if pair == "scaled" else plain_copy(vessels[kind])
        M = vessel.scaled(xs, ts)[1]
        assert np.iscomplexobj(M) == (kind == "complex")
        est, dense, gate = _gate_readings(M)
        refused = dense > gate
        # the fallback runs, and refuses only some of the points it gets
        assert 100 < refused.sum() < np.sum(~(est <= gate / core._PROBE_MARGIN)) < 1000
        errors = _one_point_errors(fn, vessel, xs, ts)
        assert sorted(errors) == np.flatnonzero(refused).tolist()
        assert all("ill-conditioned" in m for m in errors.values())
        first = min(errors)
        with pytest.raises(kv.EvaluationError) as exc:
            fn(vessel, xs, ts)
        assert (exc.value.x, exc.value.t) == (xs[first], ts[first])
        assert str(exc.value) == errors[first]

    @pytest.mark.parametrize("kind, pair", [("real", "scaled"), ("complex", "scaled"),
                                            ("real", "plain")])
    def test_the_estimate_clears_with_headroom(self, close_soliton_12, plain_copy, kind, pair):
        # The estimate reads the solve's error on P, not the gated defect
        # inv(M) M - I, so the margin rests on the measured gap between the
        # two: the cleared points stay 3x inside the gate and, for the scaled
        # pairs, dense / est stays 3x inside the margin.  The plain X that a
        # plain copy (D = I) gives as M is badly scaled, where inv(X) X - I
        # far above the gate can exceed est by any factor.
        vessels, (xs, ts) = close_soliton_12
        vessel = vessels[kind] if pair == "scaled" else plain_copy(vessels[kind])
        est, dense, gate = _gate_readings(vessel.scaled(xs, ts)[1])
        fallback = ~(est <= gate / core._PROBE_MARGIN)
        assert fallback.any() and not fallback.all()
        assert dense[~fallback].max() <= gate / 3
        if pair == "scaled":
            assert np.max(dense[fallback] / est[fallback]) <= core._PROBE_MARGIN / 3

    @pytest.mark.parametrize("n, count", [(12, 200), (64, 40), (128, 16), (256, 10)])
    def test_values_are_the_dense_inverses(self, aim1_quadrature, complex_discrete_12,
                                           n, count):
        vessel = complex_discrete_12 if n == 12 else aim1_quadrature(n)
        rng = np.random.default_rng(n + 1)
        span = 8.0 if n == 12 else 6.0
        xs, ts = rng.uniform(-span, span, count), rng.uniform(-1.0, 1.0, count)
        fields = kv.evaluate_fields(vessel, xs, ts)
        beta, q, logabs, sign = _dense_fields(vessel, xs, ts)
        for got, want in ((fields.beta, beta), (fields.q, q)):
            assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))
        assert np.array_equal(fields.log_abs_tau, logabs - vessel.log_abs_det_X0)
        assert np.array_equal(fields.tau_sign, (sign / vessel.sign_det_X0).real)
        if n > 12:
            assert np.any(sign < 0)  # the indefinite part of the grid is sampled

    @pytest.mark.parametrize("n", [12, 64, 128, 256])
    def test_values_do_not_depend_on_the_stack_size(self, aim1_quadrature,
                                                    complex_discrete_12, monkeypatch, n):
        vessel = complex_discrete_12 if n == 12 else aim1_quadrature(n)
        rng = np.random.default_rng(n + 2)
        xs, ts = rng.uniform(-6.0, 6.0, 15), rng.uniform(-1.0, 1.0, 15)
        default = kv.evaluate_fields(vessel, xs, ts)
        for size in (1, 7):
            monkeypatch.setattr(core, "_CHUNK_ENTRIES", size * n**2)
            fields = kv.evaluate_fields(vessel, xs, ts)
            for name in ("beta", "beta_prime", "log_abs_tau", "tau_sign"):
                assert np.array_equal(getattr(fields, name), getattr(default, name)), (size, name)


# ---------------------------------------------------------------------------
# core._factor on its two routes: the elimination of core._eliminate
# (n <= core._ELIMINATION_N) and LAPACK
# ---------------------------------------------------------------------------

def _adjoint_first(m):
    """Conjugate transpose of each matrix in a points-first stack (m, r, c)."""
    return np.swapaxes(m, -1, -2).conj()


@st.composite
def hermitian_stacks(draw):
    """(M, R): a points-first stack of Hermitian M = 2^e Q diag(lam) Q* with
    cond(M) <= 1e6, definite or indefinite (Pontryagin), real or complex,
    and right-hand sides R with 8 columns."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 12))
    is_complex, definite = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-30, 30))

    def gaussian(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if is_complex else g

    Q = np.linalg.qr(gaussian(count, n, n))[0]
    lam = 10.0 ** rng.uniform(-6.0, 0.0, (count, n))
    if not definite:  # one negative eigenvalue, and a positive one where n > 1
        lam[:, 0] *= -1.0
    M = scale * (Q * lam[:, None, :]) @ _adjoint_first(Q)
    return 0.5 * (M + _adjoint_first(M)), gaussian(count, n, 8)


_ROUTES = {"elimination": None, "lapack": 0}


def _on_route(route):
    """core._factor's route: the elimination as configured, or LAPACK at every n."""
    split = _ROUTES[route]
    return (mock.patch.object(core, "_ELIMINATION_N", split) if split is not None
            else contextlib.nullcontext())


def _factor_first(M, R):
    """core._factor of points-first stacks, from C-contiguous points-last
    copies, with the solve moved back to points first."""
    sign, logabs, Z = core._factor(_last(M).copy(), None if R is None else _last(R).copy())
    return sign, logabs, None if Z is None else np.moveaxis(Z, -1, 0)


@pytest.mark.parametrize("route", list(_ROUTES))
class TestFactor:
    """core._factor gives LAPACK's sign, log|det M| and M^-1 R over a
    points-last stack of any strides, on either route."""

    SINGULAR = {
        "zero-1": np.zeros((1, 1)), "ones-2": np.array([[1.0, 1.0], [1.0, 1.0]]),
        "zero-2": np.zeros((2, 2)),
        "rank2-3": np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]),
        "zero-3": np.zeros((3, 3)),
    }

    @staticmethod
    def _singular_stack(singular):
        """Six points of M = I, singular at the third and the fifth, points first."""
        n = singular.shape[0]
        M = np.broadcast_to(np.eye(n, dtype=complex), (6, n, n)).copy()
        M[2], M[4] = singular, 1j * singular
        return M

    @settings(max_examples=60, deadline=None)
    @given(stack=hermitian_stacks())
    def test_matches_lapack(self, route, stack):
        M, R = stack
        with _on_route(route):
            sign, logabs, Z = _factor_first(M, R)
            assert _factor_first(M, None)[2] is None
        sign0, logabs0 = np.linalg.slogdet(M)
        Z0 = np.linalg.solve(M, R)
        # both factorizations are backward stable: they may differ by a
        # few cond(M) eps, relative to |Z| and to the terms of log|det M|
        bound = 1e-13 * np.linalg.cond(M)
        assert np.all(np.abs(Z - Z0).max(axis=(-2, -1))
                      <= bound * np.abs(Z0).max(axis=(-2, -1)))
        assert np.all(np.abs(logabs - logabs0) <= bound + 1e-13 * np.abs(logabs0))
        assert np.array_equal(np.sign(sign.real), np.sign(sign0.real))
        assert np.all(np.abs(sign - sign0) <= bound)

    @settings(max_examples=60, deadline=None)
    @given(stack=hermitian_stacks())
    def test_a_view_of_points_first_memory_gives_the_bits_of_a_contiguous_stack(
            self, route, stack):
        M, R = stack
        with _on_route(route):
            for rhs in (R, None):
                view = core._factor(_last(M), None if rhs is None else _last(rhs))
                copy = core._factor(_last(M).copy(), None if rhs is None else _last(rhs).copy())
                for got, want in zip(view, copy):
                    if want is None:
                        assert got is None
                    else:
                        assert got.shape == want.shape and got.dtype == want.dtype
                        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("singular", list(SINGULAR.values()), ids=list(SINGULAR))
    def test_singular_points_are_named_in_order(self, route, singular):
        n = singular.shape[0]
        M = self._singular_stack(singular)
        xs, ts = np.arange(6.0), np.full(6, 0.5)

        def operators(x, t):  # M of the stack at x = 0, ..., 5, and B = 0
            return np.zeros((n, 2, x.size), dtype=complex), _last(M[x.astype(int)]), 0.0

        vessel = kv.FiniteVessel(n=n, A=np.diag(-1j * (1.0 + np.arange(n)) ** 2),
                                 operators=operators, X0=np.eye(n, dtype=complex), kind="custom")
        with _on_route(route):
            for R in (None, np.ones((n, 1, 6))):
                sign = core._factor(_last(M), R)[0]  # no LinAlgError on either route
                assert np.array_equal(sign == 0, np.isin(np.arange(6), [2, 4]))
                with pytest.raises(kv.EvaluationError, match=r"^singular Gram operator \[") as exc:
                    core._refuse(xs, ts, (sign == 0, *core._SINGULAR))
                assert (exc.value.x, exc.value.t) == (2.0, 0.5)
            for fn in (kv.log_tau, kv.evaluate, kv.evaluate_fields, kv.normalization_residual):
                with pytest.raises(kv.EvaluationError, match=r"^singular Gram operator \[") as exc:
                    fn(vessel, xs, ts)
                assert (exc.value.x, exc.value.t) == (2.0, 0.5), fn.__name__

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_values_do_not_depend_on_the_stack_size(self, route, n, dtype):
        rng = np.random.default_rng(n)
        count = core._CHUNK_ENTRIES // n**2  # the default stack
        M = rng.standard_normal((n, n, count)).astype(dtype)
        if dtype is complex:
            M += 1j * rng.standard_normal((n, n, count))
        M = M + core._adjoint(M)
        R = rng.standard_normal((n, 8, count)).astype(dtype)
        with _on_route(route):
            whole = core._factor(M, R)
            for size in (1, 7):
                end = 70 * size  # a prefix of the stack in stacks of ``size``
                parts = [core._factor(M[..., s:s + size], R[..., s:s + size])
                         for s in range(0, end, size)]
                for got, want in zip(zip(*parts), whole):
                    assert (np.concatenate(got, axis=-1).tobytes()
                            == np.ascontiguousarray(want[..., :end]).tobytes()), size


def test_a_singular_point_the_elimination_passes_is_named_by_the_dense_check():
    # S is exactly singular (det S = 0 in integers), but the elimination
    # rounds its last pivot to about 1e-16, while LAPACK's LU, which
    # the dense inverse-defect check calls, meets the exact zero
    S = np.array([[1.0, 3.0, 1.0], [3.0, 1.0, -1.0], [1.0, -1.0, -1.0]])
    assert np.all(core._factor(S[..., None], None)[0] != 0)
    assert np.linalg.slogdet(S)[0] == 0

    def operators(x, t):
        B = _each_point([[1.0, 0.5j], [0.3, -1.0j], [-0.7, 0.2j]], x.size)
        return B, _last(S + x[:, None, None] * np.eye(3)), 0.0  # singular at x = 0

    vessel = kv.FiniteVessel(n=3, A=np.diag([-1j, -4j, -9j]), operators=operators,
                             X0=np.eye(3, dtype=complex), kind="custom")
    for fn in (kv.evaluate, kv.evaluate_fields):
        with pytest.raises(kv.EvaluationError, match=r"^singular Gram operator \[") as exc:
            fn(vessel, np.array([0.5, 1.0, 0.0, 2.0]), 0.1)
        assert (exc.value.x, exc.value.t) == (0.0, 0.1)


def _route_errors(monkeypatch, fn, vessel, X, T):
    """{route: (one-point errors, the error of the whole grid or None)} of
    fn on the grid X, T with the elimination and with LAPACK at every n."""
    out = {}
    for route, split in (("elimination", core._ELIMINATION_N), ("lapack", 0)):
        monkeypatch.setattr(core, "_ELIMINATION_N", split)
        try:
            fn(vessel, X, T)
            first = None
        except (kv.EvaluationError, kv.NumericalConsistencyError) as exc:
            first = (exc.x, exc.t, str(exc))
        out[route] = _one_point_errors(fn, vessel, X.ravel(), T.ravel()), first
    return out


@pytest.fixture(scope="module")
def elimination_hard_inputs(plain_copy, wide_two_soliton, rotated_three_soliton):
    """name: (vessel, X, T) of the n <= 3 inputs whose refusals the
    elimination must share with LAPACK."""
    wide = np.meshgrid(np.linspace(-200.0, 200.0, 401), [-0.05, 0.05], indexing="ij")
    cauchy = kv.build_soliton(kv.SolitonSpec.from_c([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]))
    return {
        "wide-1": (plain_copy(kv.build_soliton(kv.SolitonSpec(k=[3.0], b=[2.0]))), *wide),
        "wide-2": (wide_two_soliton, *wide),
        "cauchy-3": (plain_copy(cauchy),
                     *np.meshgrid(np.linspace(-3.0, 3.0, 21), np.linspace(-3.0, 3.0, 21),
                                  indexing="ij")),
        "rotated-3": (rotated_three_soliton,
                      *np.meshgrid(np.linspace(-2.0, 2.0, 41), np.linspace(-0.5, 0.5, 11),
                                   indexing="ij")),
    }


def _kind(message):
    """A refusal message with its readings masked."""
    return re.sub(r"-?\d\.\d+e[+-]\d+", "#", message)


@pytest.mark.parametrize("fn", [kv.evaluate_fields, kv.log_tau])
@pytest.mark.parametrize("name", ["wide-1", "wide-2", "cauchy-3", "rotated-3"])
def test_elimination_refuses_what_lapack_refuses(monkeypatch, elimination_hard_inputs, name, fn):
    vessel, X, T = elimination_hard_inputs[name]
    got = _route_errors(monkeypatch, fn, vessel, X, T)
    (errors, first), (lapack_errors, lapack_first) = got["elimination"], got["lapack"]
    if name != "rotated-3":
        assert errors == lapack_errors and first == lapack_first
        return
    # The rotated vessel's M is its complex plain X, whose det is real only
    # up to cond(X) eps.  The imaginary-residue gate on tau reads that
    # rounding, so where the reading is near the gate's tolerance the two
    # factorizations may decide differently.  Every other refusal is
    # shared, message kind for kind.
    flipped = {i for i in errors.keys() | lapack_errors.keys()
               if _kind(errors.get(i, "")) != _kind(lapack_errors.get(i, ""))}
    assert len(flipped) <= 0.1 * len(lapack_errors)
    for i in flipped:
        for message in (errors.get(i), lapack_errors.get(i)):
            assert message is None or message.startswith("tau has relative imaginary residue")


def _soliton_reference(k, b, x, t, lam):
    """60-digit beta, beta', log|tau| and S(lam) of the soliton (k, b) with
    X0 = I at (x, t), from M = E^-1 X E^-1 = E^-2 + G for E = diag(e^phi)."""
    with mpmath.workdps(60):
        k, b = [mpmath.mpf(v) for v in k], [mpmath.mpf(v) for v in b]
        n, x, t = len(k), mpmath.mpf(x), mpmath.mpf(t)
        phi = [k[i] * x + k[i] ** 3 * t for i in range(n)]
        M = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                M[i, j] = (i == j) * mpmath.exp(-2 * phi[i]) + b[i] * b[j] / (k[i] + k[j])
        Bt = mpmath.matrix([[b[i], 1j * k[i] * b[i]] for i in range(n)])  # E^-1 B
        Yt = mpmath.inverse(M) * Bt
        m = Bt.H * Yt
        beta = -mpmath.re(m[0, 0])
        beta_p = beta**2 + mpmath.re(1j * (m[0, 1] - m[1, 0]))
        R = mpmath.diag([1 / (lam + 1j * k[i] ** 2) for i in range(n)]) * Bt
        S = mpmath.eye(2) - Yt.H * R * mpmath.matrix([[0, 1], [1, 0]])
        return (beta, beta_p, mpmath.log(mpmath.det(M)) + 2 * sum(phi),
                np.array(S.tolist(), dtype=complex))


def test_points_the_plain_x_refused_match_60_digits(close_soliton_12, plain_copy):
    # a seeded sample of the points whose plain X (the plain copy's M)
    # fails the dense gate while the vessel's own M passes it; evaluate
    # refused them before it read the pair
    vessels, (xs, ts) = close_soliton_12
    vessel = vessels["real"]
    gated = [_gate_readings(v.scaled(xs, ts)[1])
             for v in (plain_copy(vessel), vessel)]
    lifted = np.flatnonzero((gated[0][1] > gated[0][2]) & (gated[1][1] <= gated[1][2]))
    assert lifted.size > 20
    pick = np.random.default_rng(14).choice(lifted, 8, replace=False)
    for i in pick:
        with pytest.raises(kv.EvaluationError, match="ill-conditioned"):
            kv.evaluate(plain_copy(vessel), xs[i], ts[i])
    lam = 0.7 + 0.4j
    state = kv.evaluate(vessel, xs[pick], ts[pick])
    S = kv.eval_S(vessel, lam, state)
    k = vessel.metadata["generators"]
    for j, i in enumerate(pick):
        beta, beta_p, logabs, S_ref = _soliton_reference(k, np.ones(12), xs[i], ts[i], lam)
        for got, ref in ((state.beta[j], beta), (state.beta_prime[j], beta_p),
                         (state.log_abs_tau[j], logabs)):
            assert abs(got - ref) <= 1e-10 * (1 + abs(ref)), (xs[i], ts[i])
        assert np.linalg.norm(S[j] - S_ref) <= 1e-10 * np.linalg.norm(S_ref)


@pytest.fixture(scope="module")
def wide_two_soliton(plain_copy):
    """The plain two-soliton vessel: at t = 0 the inverse-defect gate fails
    from x ~ 11.9, X overflows from x ~ 177.45 and B from x ~ 354.2."""
    return plain_copy(kv.build_soliton(kv.SolitonSpec.from_c([1.0, 2.0], [1.0, 1.0])))


def _first_point_error(fn, vessel, xs):
    """The message of the first x whose one-point fn(vessel, x, 0) raises, or None."""
    for x in xs:
        try:
            fn(vessel, x, 0.0)
        except (kv.EvaluationError, kv.NumericalConsistencyError) as exc:
            return str(exc)
    return None


def _mixed_fault_vessel(rows):
    """n = 2 with B from the _FAULTS row rows[i][0] and M from rows[i][1] at
    x = i (B = 0 and M = I for the row "none"): two faults at one point, or
    one, or none."""
    table = {"none": (np.zeros((2, 2)), np.eye(2)), **_FAULTS}
    Bs, Ms = (np.array([np.asarray(table[row[j]][j], dtype=complex) for row in rows])
              for j in (0, 1))

    def operators(x, t):
        i = x.astype(int)
        return _last(Bs[i]), _last(Ms[i]), 0.0

    return kv.FiniteVessel(n=2, A=np.diag([-1j, -4j]), operators=operators,
                           X0=np.eye(2, dtype=complex), kind="custom")


class TestFirstFailingPoint:
    """A failing stack names its earliest failing point, whichever check
    fails there, even when another check fires first on a later point."""

    @pytest.mark.parametrize("call", [
        lambda v: kv.evaluate(v, np.array([20.0, 400.0]), 0.0),
        lambda v: kv.evaluate_fields(v, np.array([20.0, 400.0]), 0.0),
        lambda v: kv.gl_kernels(v, 400.0, 20.0, 0.3),
    ], ids=["evaluate", "evaluate_fields", "gl_kernels"])
    def test_gate_failure_before_a_later_overflow(self, wide_two_soliton, call):
        with pytest.raises(kv.EvaluationError, match="ill-conditioned") as exc:
            call(wide_two_soliton)
        assert (exc.value.x, exc.value.t) == (20.0, 0.0)

    def test_scaled_pair_is_finite_where_the_plain_vessel_raises(self, wide_two_soliton):
        # the hooked vessel reads M and D^-1 B: beta -> -2 (k1 + k2) = -6
        # and q -> 0 on the right, with log tau past the float range at 400
        xs = np.array([20.0, 177.375, 400.0])
        hooked = kv.build_soliton(kv.SolitonSpec.from_c([1.0, 2.0], [1.0, 1.0]))
        fields = kv.evaluate_fields(hooked, xs, 0.0)
        for v in (fields.beta, fields.beta_prime, fields.log_abs_tau):
            assert np.all(np.isfinite(v))
        assert fields.beta == pytest.approx(-6.0, abs=1e-12)
        assert fields.q == pytest.approx(0.0, abs=1e-12)
        assert np.isinf(fields.tau[2]) and np.all(fields.tau_sign == 1.0)
        for x in xs:
            with pytest.raises(kv.EvaluationError) as exc:
                kv.evaluate_fields(wide_two_soliton, x, 0.0)
            assert exc.value.x == x

    @pytest.mark.parametrize("fn", [kv.evaluate, kv.evaluate_fields])
    def test_finite_x_at_the_edge_of_the_float_range_is_named(self, wide_two_soliton, fn):
        # X is finite at x = 177.375, where no X + X* is formed any more: the
        # inverse-defect gate refuses the point, and no NaN beta comes back
        with pytest.raises(kv.EvaluationError, match="ill-conditioned") as exc:
            fn(wide_two_soliton, np.array([0.0, 177.375]), 0.0)
        assert (exc.value.x, exc.value.t) == (177.375, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(xs=st.lists(st.one_of(st.floats(-5.0, 11.9), st.floats(11.9, 177.3),
                                 st.floats(177.3, 354.2), st.floats(354.2, 400.0)),
                       min_size=1, max_size=9),
           rows=st.lists(st.tuples(*2 * [st.deferred(  # _FAULTS is defined below
               lambda: st.sampled_from(["none", *_FAULTS]))]), min_size=1, max_size=9))
    def test_message_is_that_of_the_first_failing_point(self, wide_two_soliton, xs, rows):
        # the wide two-soliton's gates at drawn x, and every gate of the
        # stack at drawn points of the mixed-fault vessel
        for vessel, points in ((wide_two_soliton, xs),
                               (_mixed_fault_vessel(rows), [float(i) for i in range(len(rows))])):
            for fn in (kv.evaluate, kv.evaluate_fields, kv.log_tau, kv.normalization_residual):
                expected = _first_point_error(fn, vessel, points)
                if expected is None:
                    fn(vessel, np.array(points), 0.0)
                else:
                    with pytest.raises((kv.EvaluationError, kv.NumericalConsistencyError)) as exc:
                        fn(vessel, np.array(points), 0.0)
                    assert str(exc.value) == expected, fn.__name__


def _gram_vessel(upper, lower):
    """n = 2, B = 0 and X = [[1, upper(x)], [lower(x), 1]]."""
    def operators(x, t):
        X = np.zeros((2, 2, x.size))
        X[0, 0] = X[1, 1] = 1.0
        X[0, 1], X[1, 0] = upper(x), lower(x)
        return np.zeros((2, 2, x.size)), X, 0.0

    return kv.FiniteVessel(
        n=2,
        A=np.diag([-1j, -4j]),
        operators=operators,
        X0=np.eye(2, dtype=complex),
        kind="custom",
    )


@pytest.fixture(scope="module")
def quadrature_64():
    spec = kv.gauss_legendre_spectrum(1.2, 64, lambda s: 0.5 * np.exp(-(s**2)))
    return kv.build_quadrature_vessel(spec)


# ---------------------------------------------------------------------------
# one stacked state over arrays of points against the one-point calls
# ---------------------------------------------------------------------------

_STATE_FIELDS = ("B", "M", "Y", "log_d", "gamma_star", "beta", "beta_prime", "log_abs_tau",
                 "tau_sign", "tau")


def _assert_stack_equals_points(vessel, xs, ts, lams):
    """evaluate and eval_S over the stack xs, ts equal their one-point calls."""
    state = kv.evaluate(vessel, xs, ts)
    S = kv.eval_S(vessel, lams, state)
    assert state.B.shape == xs.shape + (vessel.n, 2) and state.beta.shape == xs.shape
    assert S.shape == lams.shape + xs.shape + (2, 2)
    for i in np.ndindex(xs.shape):
        one = kv.evaluate(vessel, float(xs[i]), float(ts[i]))
        for name in _STATE_FIELDS:
            assert np.array_equal(getattr(state, name)[i], getattr(one, name)), name
        S1 = kv.eval_S(vessel, lams, one)
        assert np.array_equal(S[(...,) + i + (slice(None), slice(None))], S1)


class TestStackedState:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), complex_b=st.booleans(),
           shape=st.sampled_from([(1,), (5,), (2, 3)]))
    def test_discrete_stack_equals_scalar_calls(self, data, complex_b, shape):
        vessel = data.draw(discrete_vessels(complex_b))
        count = int(np.prod(shape))
        xs, ts = (p.reshape(shape) for p in _points(data.draw, count, (-1.5, 1.5), (-0.3, 0.3)))
        pairs = list(zip(xs.ravel().tolist(), ts.ravel().tolist()))
        state = kv.evaluate(vessel, xs, ts)
        for name in ("beta", "beta_prime", "log_abs_tau", "tau_sign"):
            assert np.array_equal(np.ravel(getattr(state, name)),
                                  [getattr(kv.evaluate(vessel, x, t), name) for x, t in pairs])
        logabs, sign = kv.log_tau(vessel, xs, ts)
        assert logabs.shape == sign.shape == shape
        assert np.array_equal(np.stack([logabs.ravel(), sign.ravel()], axis=-1),
                              [kv.log_tau(vessel, x, t) for x, t in pairs])
        for fn in (kv.lyapunov_residual, kv.normalization_residual):
            res = fn(vessel, xs, ts)
            assert res.shape == shape
            assert np.array_equal(res.ravel(), [fn(vessel, x, t) for x, t in pairs])
            assert np.all(res < 1e-12)

    def test_rotated_vessel(self, rotated_three_soliton):
        xs = np.array([[-0.4, 0.1, 0.6], [0.2, -0.8, 0.3]])
        ts = np.array([0.05, -0.1, 0.2])
        lams = np.array([0.5 + 1.0j, -2.0 + 0.3j])
        _assert_stack_equals_points(rotated_three_soliton, xs, np.broadcast_to(ts, xs.shape),
                                    lams)

    def test_bad_points_are_named_in_order(self):
        vessel = _gram_vessel(lambda x: x, lambda x: x)  # X = [[1, x], [x, 1]]
        xs = np.array([0.0, 0.25, 1.0, 0.5, -1.0])
        for fn in (kv.evaluate, kv.normalization_residual):
            with pytest.raises(kv.EvaluationError, match="singular") as exc:
                fn(vessel, xs, 0.0)
            assert (exc.value.x, exc.value.t) == (1.0, 0.0)

    def test_overflow_is_named_in_order(self, one_soliton, plain_copy):
        vessel = plain_copy(one_soliton[1])
        for fn in (kv.evaluate, kv.log_tau, kv.lyapunov_residual):
            with pytest.raises(kv.EvaluationError, match="overflowed") as exc:
                fn(vessel, np.array([0.0, 400.0, 500.0]), 0.0)
            assert exc.value.x == 400.0


# ---------------------------------------------------------------------------
# one way to refuse a point: every gate names its first failing (x, t)
# ---------------------------------------------------------------------------

# a 3 x 2 grid whose failing points x + t >= 1.5 are (1, 0.5), (2, 0) and
# (2, 0.5): the first in C order is (1, 0.5), in Fortran order (2, 0)
_FAULT_X, _FAULT_T = np.meshgrid([0.0, 1.0, 2.0], [0.0, 0.5], indexing="ij")
_FAULT_FIRST = (1.0, 0.5)

# M = 1e-4 I plus an antisymmetric 5e-13 inside the Hermitian tolerance:
# M^-1 = 1e4 I carries an antisymmetric part ~ 5e-5 into B* M^-1 B
_SMALL_M = [[1e-4, 5e-13], [0.0, 1e-4]]
# a rotation of diag(1, 1e-13), exactly symmetric: inv(M) M - I ~ 1e-4
_C, _S = np.cos(0.3), np.sin(0.3)
_ILL_M = [[_C * _C + 1e-13 * _S * _S, (1 - 1e-13) * _C * _S],
          [(1 - 1e-13) * _C * _S, _S * _S + 1e-13 * _C * _C]]
# 1e3 [[1, c], [conj(c) + 1e-12 i, 1]] with |c|^2 = 1 - 1e-4: tau ~ 100
# with an imaginary part ~ 1e-6
_TAU_C = np.sqrt(1 - 1e-4) * np.exp(0.3j)
_TAU_M = 1e3 * np.array([[1.0, _TAU_C], [_TAU_C.conjugate() + 1e-12j, 1.0]])

# (B, M) at the failing points of the fault grid; B = 0 and M = I elsewhere
_FAULTS = {
    "B overflow": (np.full((2, 2), np.inf), np.eye(2)),
    "M overflow": (np.zeros((2, 2)), [[1.0, np.inf], [0.0, 1.0]]),
    "asymmetry": (np.zeros((2, 2)), [[1.0, 1e-6], [0.0, 1.0]]),
    "zero pivot": (np.zeros((2, 2)), np.ones((2, 2))),
    "inverse defect": (np.zeros((2, 2)), _ILL_M),
    "beta residue": ([[1.0, 0.0], [1j, 0.0]], _SMALL_M),
    "beta' residue": ([[1e-2, 0.0], [0.0, 1.0]], _SMALL_M),
    "tau residue": (np.zeros((2, 2)), _TAU_M),
}


def _fault_vessel(B_bad, M_bad):
    """n = 2 with B = 0 and M = I, but (B_bad, M_bad) where x + t >= 1.5."""
    def operators(x, t):
        bad = x + t >= 1.5
        return (np.where(bad, _each_point(np.asarray(B_bad, dtype=complex), 1), 0j),
                np.where(bad, _each_point(np.asarray(M_bad, dtype=complex), 1),
                         _each_point(np.eye(2), 1)), 0.0)

    return kv.FiniteVessel(n=2, A=np.diag([-1j, -4j]), operators=operators,
                           X0=np.eye(2, dtype=complex), kind="custom")


def _self_check_case():
    # B sigma1 B* = 2 I breaks the Lyapunov condition where x > 0; the
    # self-check draws its 50 points from seed 0
    def operators(x, t):
        B = np.where(x > 0, _each_point(np.ones((2, 2), dtype=complex), 1), 0j)
        return B, _each_point(np.eye(2, dtype=complex), x.size), 0.0

    vessel = kv.FiniteVessel(n=2, A=np.diag([-1j, -4j]), operators=operators,
                             X0=np.eye(2, dtype=complex), kind="custom")
    xs, ts = np.random.default_rng(0).uniform([-2.0, -0.5], [2.0, 0.5], size=(50, 2)).T
    first = np.flatnonzero(xs > 0)
    assert first.size > 1
    return lambda: core.lyapunov_self_check(vessel), (xs[first[0]], ts[first[0]])


def _construction_case():
    # the coarse steps to x = 1 and 1.5 break the monitored Lyapunov residual
    closed = kv.build_soliton(kv.SolitonSpec.from_c([1.0, 2.0], [1.0, 1.0]))
    grid = np.concatenate([np.linspace(-0.5, 0.5, 1001), [1.0, 1.5]])
    return (lambda: kv.integrate_standard_construction(
        closed.A, closed.B(-0.5, 0.0), closed.X(-0.5, 0.0), -0.5, grid)), (1.0, 0.0)


def _kernel_overflow_case():
    # K(20, s) ~ e^{2 (s - 20)} leaves the float range on the Simpson nodes
    # s from x0 = 400 down to ~375, the first of them s = 400
    vessel = kv.build_soliton(kv.SolitonSpec(k=[1.0, 2.0], b=[np.sqrt(2.0), 2.0]))
    return lambda: kv.gl_residual(vessel, 400.0, 20.0, 0.3), (400.0, 0.0)


def _kernel_residue_case():
    # B times e^{0.3 i max(x - 1, 0)} leaves Omega(s, 0.7) real up to s = 1
    # and complex on every Simpson node past it
    base = kv.build_soliton(kv.SolitonSpec(k=[0.7, 1.1], b=[0.5, 0.5]))

    def operators(x, t):
        B, M, log_d = base.operators(x, t)
        return np.exp(0.3j * np.maximum(x - 1.0, 0.0)) * B, M, log_d

    vessel = dataclasses.replace(base, operators=operators)
    nodes = np.linspace(0.0, 1.5, 201)
    return lambda: kv.gl_residual(vessel, 0.0, 1.5, 0.7), (nodes[nodes > 1.0][0], 0.0)


_STACK_GATES = [
    (name, fn, _FAULTS[name], error, pattern)
    for name, error, pattern in [
        ("B overflow", kv.EvaluationError, "coupling B overflowed"),
        ("M overflow", kv.EvaluationError, "Gram operator X overflowed"),
        ("asymmetry", kv.NumericalConsistencyError, "X asymmetry"),
        ("zero pivot", kv.EvaluationError, "singular Gram operator"),
        ("inverse defect", kv.EvaluationError, "ill-conditioned"),
        ("beta residue", kv.NumericalConsistencyError, "^beta has imaginary residue"),
        ("beta' residue", kv.NumericalConsistencyError, "^beta' has imaginary residue"),
        ("tau residue", kv.NumericalConsistencyError, "^tau has relative imaginary residue"),
    ]
    for fn in (kv.evaluate, kv.evaluate_fields)
]

_OTHER_GATES = [
    ("self-check", _self_check_case, kv.InvalidSpecError, "self-check failed"),
    ("construction", _construction_case, kv.EvaluationError, "during construction"),
    ("kernel overflow", _kernel_overflow_case, kv.EvaluationError, r"^K\(20\.0, 400\.0\) overflowed"),
    ("kernel residue", _kernel_residue_case, kv.NumericalConsistencyError,
     r"^Omega\(1\.0\d*, 0\.7\) has imaginary residue"),
]


def _assert_names_first(exc, first, pattern):
    x, t = first
    assert (exc.value.x, exc.value.t) == (x, t)
    message = str(exc.value)
    assert message.endswith(f" [at x={float(x)!r}, t={float(t)!r}]"), message
    assert re.search(pattern, message), message


class TestOneRefusal:
    """Every gate refuses a stack at its first failing point in C order, as
    ``.x``, ``.t`` and the message suffix ``[at x=..., t=...]``."""

    @pytest.mark.parametrize("name, fn, fault, error, pattern", _STACK_GATES,
                             ids=[f"{g[0]}-{g[1].__name__}" for g in _STACK_GATES])
    def test_stack_gates(self, name, fn, fault, error, pattern):
        vessel = _fault_vessel(*fault)
        fn(vessel, _FAULT_X[:1], _FAULT_T[:1])  # the first row passes
        with pytest.raises(error) as exc:
            fn(vessel, _FAULT_X, _FAULT_T)
        _assert_names_first(exc, _FAULT_FIRST, pattern)

    @pytest.mark.parametrize("name, case, error, pattern", _OTHER_GATES,
                             ids=[g[0] for g in _OTHER_GATES])
    def test_other_gates(self, name, case, error, pattern):
        call, first = case()
        with pytest.raises(error) as exc:
            call()
        _assert_names_first(exc, first, pattern)


def _huge_vessel():
    """n = 2 with B = 0 and an exactly Hermitian M of entries near 1e200,
    except where x >= 0: there M_21 = 0, a relative asymmetry of 1e-10,
    100x the tolerance.  ||M||_F squares the entries and overflows at
    every point."""
    def operators(x, t):
        lower = np.where(x >= 0.0, 0.0, 1e190)
        M = np.where(_each_point([[True, True], [False, True]], 1),
                     _each_point([[1e200, 1e190], [0.0, 1e200]], 1), lower)
        return np.zeros((2, 2, x.size), dtype=complex), M, 0.0

    return kv.FiniteVessel(n=2, A=np.diag([-1j, -4j]), operators=operators,
                           X0=np.eye(2, dtype=complex), kind="custom")


class TestHermitianCheckPastTheSquares:
    """The Hermitian check of the operator read where ||X||_F overflows."""

    @pytest.mark.parametrize("call", [
        lambda v, x, t: v.scaled(x, t), lambda v, x, t: v.plain(x, t),
        kv.log_tau, kv.evaluate, kv.evaluate_fields,
    ], ids=["scaled", "plain", "log_tau", "evaluate", "evaluate_fields"])
    def test_asymmetry_is_refused(self, call):
        vessel = _huge_vessel()
        with pytest.raises(kv.NumericalConsistencyError) as exc:
            call(vessel, 0.0, 0.0)
        _assert_names_first(exc, (0.0, 0.0), r"^X asymmetry 1\.414e\+190 ")
        # in a stack, the Hermitian points pass and the first asymmetric one is named
        with pytest.raises(kv.NumericalConsistencyError) as exc:
            call(vessel, np.array([-1.0, -0.5, 0.0, 2.0]), 0.0)
        _assert_names_first(exc, (0.0, 0.0), r"^X asymmetry 1\.414e\+190 ")

    def test_asymmetry_past_the_float_range_is_refused(self):
        # X - X* overflows on the diagonal (2i Im X_ii = 2e308 i), the
        # entries of X do not
        M = np.array([[1e308 + 1e308j, 1e300], [1e300, 1.0]])
        vessel = kv.FiniteVessel(
            n=2, A=np.diag([-1j, -4j]), X0=np.eye(2, dtype=complex), kind="custom",
            operators=lambda x, t: (np.zeros((2, 2, x.size), dtype=complex),
                                    _each_point(M, x.size), 0.0))
        with pytest.raises(kv.NumericalConsistencyError) as exc:
            vessel.scaled(0.0, 0.0)
        _assert_names_first(exc, (0.0, 0.0), r"^X asymmetry inf ")

    def test_hermitian_points_pass(self):
        vessel = _huge_vessel()
        logabs, sign = kv.log_tau(vessel, np.array([-1.0, -0.5]), 0.0)
        # det M = 1e400 - 1e380, past the float range but not its logarithm
        assert np.allclose(logabs, 400.0 * np.log(10.0), rtol=1e-15) and np.all(sign == 1.0)


@pytest.mark.parametrize("build", [
    lambda b: kv.build_soliton(kv.SolitonSpec(k=[0.6, 0.9, 1.3, 1.7], b=b)),
    lambda b: kv.build_discrete_vessel(kv.DiscreteSpectrum(k=np.array([0.6, 0.9, 1.3, 1.7]),
                                                           b=b)),
    lambda b: kv.build_quadrature_vessel(kv.gauss_legendre_spectrum(
        1.5, 4, lambda s: 0.8 * np.exp(-(s**2) + 2j * s))),
], ids=["soliton", "discrete", "quadrature"])
def test_builders_give_an_exactly_hermitian_m(build):
    # the operator read allows an asymmetry of 1e-12 (1 + ||M||); every
    # builder's M and plain X meet it with none, complex couplings included
    rng = np.random.default_rng(21)
    b = rng.uniform(0.3, 1.5, 4) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 4))
    vessel = build(b)
    xs, ts = rng.uniform(-6.0, 6.0, 200), rng.uniform(-0.5, 0.5, 200)
    for M in (vessel.scaled(xs, ts)[1], vessel.plain(xs, ts)[1]):
        assert np.iscomplexobj(M)
        assert np.array_equal(M, M.swapaxes(-1, -2).conj())
