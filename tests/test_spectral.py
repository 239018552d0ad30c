import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import kdvessel as kv
from kdvessel import core, spectral, suite
from kdvessel.spectral import trig_kernel


def simpson(f, a, b, n=2001):
    xs = np.linspace(a, b, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * f(xs)) * (xs[1] - xs[0]) / 3.0)


class TestDiscreteSpectrum:
    def test_rejects_zero_wavenumber(self):
        with pytest.raises(kv.InvalidSpecError):
            kv.DiscreteSpectrum(k=np.array([0.0, 1.0]), b=np.array([1.0, 1.0]))

    def test_rejects_colliding_squares(self):
        # k and -k share k^2: the kernel denominator degenerates
        with pytest.raises(kv.InvalidSpecError):
            kv.DiscreteSpectrum(k=np.array([1.0, -1.0]), b=np.array([1.0, 1.0]))

    def test_periodic_flavor_validation(self):
        kv.DiscreteSpectrum(k=np.array([1.0, 2.0]), b=np.array([1.0, 1.0]),
                            flavor="periodic", period=2 * np.pi)
        with pytest.raises(kv.InvalidSpecError):
            kv.DiscreteSpectrum(k=np.array([1.05, 2.0]), b=np.array([1.0, 1.0]),
                                flavor="periodic", period=2 * np.pi)
        with pytest.raises(kv.InvalidSpecError):
            kv.DiscreteSpectrum(k=np.array([1.0]), b=np.array([1.0]), flavor="periodic")

    def test_tail_bound(self):
        spec = kv.DiscreteSpectrum(k=np.array([1.0, 3.0]), b=np.array([0.5, 0.2]))
        assert spec.tail_bound == pytest.approx(max(0.25 * 1.0, 0.04 * 3.0))


class TestTrigKernel:
    def test_matches_printed_divided_difference(self):
        # off-diagonal entries equal the raw (sin/k cos - cos sin/k)/(k^2-k^2) form
        k = np.array([1.0, 2.0])
        x, t = 0.7, 0.3
        th = k * x - k**3 * t
        s = np.sin(th) / k
        c = np.cos(th)
        raw = (s[0] * c[1] - c[0] * s[1]) / (k[0] ** 2 - k[1] ** 2)
        K = trig_kernel(k, x, t)
        assert K[0, 1] == pytest.approx(raw, abs=1e-15)
        assert K[1, 0] == pytest.approx(raw, abs=1e-15)

    def test_diagonal_limit_formula(self):
        # (x - 3 k^2 t)/(2 k^2) - sin(2 theta)/(4 k^3)
        k = np.array([1.3])
        x, t = 0.9, -0.2
        th = k[0] * x - k[0] ** 3 * t
        expected = (x - 3 * k[0] ** 2 * t) / (2 * k[0] ** 2) - np.sin(2 * th) / (4 * k[0] ** 3)
        assert trig_kernel(k, x, t)[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_near_degenerate_pair_is_smooth(self):
        # entries vary continuously as k_m -> k_n
        x, t = 0.8, 0.1
        vals = [trig_kernel(np.array([1.0, 1.0 + eps]), x, t)[0, 1]
                for eps in (1e-3, 1e-6, 1e-9)]
        diag = trig_kernel(np.array([1.0]), x, t)[0, 0]
        assert abs(vals[-1] - diag) < 1e-8
        assert abs(vals[0] - diag) < 1e-2

    def test_diagonal_is_sine_energy_integral(self):
        # at t = 0 the diagonal equals int_0^x sin^2(k y)/k^2 dy
        k = np.array([1.0])
        val = trig_kernel(k, np.pi, 0.0)[0, 0]
        assert val == pytest.approx(np.pi / 2.0, abs=1e-12)
        oracle = simpson(lambda y: np.sin(y) ** 2, 0.0, np.pi)
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_diagonal_matches_flux_integral_general_k(self):
        k = np.array([1.7])
        x = 2.3
        oracle = simpson(lambda y: np.sin(k[0] * y) ** 2 / k[0] ** 2, 0.0, x)
        assert trig_kernel(k, x, 0.0)[0, 0] == pytest.approx(oracle, abs=1e-8)


def mp_gram(k, c, x, t, dps=30):
    """X = I + Kker o (c c*) in ``dps``-digit arithmetic on the float inputs.

    Off the diagonal the printed divided difference, on it the exact limit
    (x - 3 k^2 t)/(2 k^2) - sin(2 theta)/(4 k^3); the precision absorbs the
    cancellation of near-degenerate pairs.
    """
    with mpmath.workdps(dps):
        K = [mpmath.mpf(float(v)) for v in k]
        cs = [mpmath.mpc(complex(v)) for v in c]
        X, T = mpmath.mpf(float(x)), mpmath.mpf(float(t))
        th = [a * X - a**3 * T for a in K]
        u = [mpmath.sin(th[i]) / K[i] for i in range(len(K))]
        co = [mpmath.cos(v) for v in th]
        out = np.empty((len(K), len(K)), dtype=complex)
        for i, a in enumerate(K):
            for j, b in enumerate(K):
                if i == j:
                    kern = (X - 3 * a**2 * T) / (2 * a**2) - mpmath.sin(2 * th[i]) / (4 * a**3)
                else:
                    kern = (u[i] * co[j] - co[i] * u[j]) / (a**2 - b**2)
                out[i, j] = complex(kern * cs[i] * mpmath.conj(cs[j]) + (i == j))
    return out


def _gl_vessel(n):
    spec = kv.gauss_legendre_spectrum(1.3, n, lambda s: 0.45 * np.exp(-((s / 0.9) ** 2)))
    return spec.nodes, spec.couplings(), kv.build_quadrature_vessel(spec)


def _discrete_vessel(k, b):
    spec = kv.DiscreteSpectrum(k=np.array(k), b=np.array(b))
    return spec.k, spec.b, kv.build_discrete_vessel(spec)


# |1 - k| = _NEAR k here: k (1 -+ 1e-9) pairs with 1 just inside / outside
# the near set of trig_kernel
_EDGE = 1.0 / (1.0 - spectral._NEAR)


class TestTrigKernelMpmathOracle:
    """Every entry of X against 30-digit arithmetic, far and near pairs alike.

    The Lyapunov self-check cannot see the near pairs (see
    core.lyapunov_self_check), so this is their check.
    """

    CASES = {
        "gauss_legendre_64": lambda: _gl_vessel(64),
        "near_degenerate": lambda: _discrete_vessel([1.0, 1.0 + 1e-6, 1.3], [0.7, 0.5, 0.9]),
        "near_degenerate_complex": lambda: _discrete_vessel(
            [1.0, 1.0 + 1e-6, 1.3], [0.7, 0.5 - 0.4j, 0.3 + 0.8j]),
        "near_set_boundary": lambda: _discrete_vessel(
            [1.0, _EDGE * (1 - 1e-9), _EDGE * (1 + 1e-9)], [0.8, 0.6, 0.7]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("x, t", [(-1.297, 0.0288), (0.37, -0.11), (2.6, 0.31)])
    def test_entries_match_high_precision(self, case, x, t):
        k, c, vessel = self.CASES[case]()
        X = vessel.X(x, t)
        ref = mp_gram(k, c, x, t)
        err = np.max(np.abs(X - ref)) / (1.0 + np.linalg.norm(ref))
        assert err <= 5e-14
        # exactly Hermitian, so the asymmetry check of core.evaluate never trips
        assert np.array_equal(X, X.conj().T)

    def test_boundary_pairs_straddle_the_near_set(self):
        k = np.array([1.0, _EDGE * (1 - 1e-9), _EDGE * (1 + 1e-9)])
        tab = spectral._trig_tables(k, np.ones((3, 3)))
        near = set(zip(tab.rows.tolist(), tab.cols.tolist()))
        assert (0, 1) in near and (0, 2) not in near


def _flip_first_far_pair(monkeypatch):
    """Make every trigonometric build flip the sign of the far pair
    (0, n-1) of its table, both mirror entries, so X stays Hermitian."""
    build = spectral._trig_tables

    def flipped(k, C):
        tab = build(k, C)
        W = tab.W.copy()
        assert W[0, -1] != 0  # a far pair
        W[0, -1], W[-1, 0] = -W[0, -1], -W[-1, 0]
        return tab._replace(W=W)

    monkeypatch.setattr(spectral, "_trig_tables", flipped)


@pytest.mark.parametrize("build, spec", [
    (kv.build_discrete_vessel,
     kv.DiscreteSpectrum(k=np.array([0.8, 1.9, 2.7]), b=np.array([0.5, 0.4, 0.3]))),
    (kv.build_quadrature_vessel,
     kv.gauss_legendre_spectrum(1.2, 8, lambda s: 0.5 * np.exp(-(s**2)))),
], ids=["discrete", "quadrature"])
def test_self_check_guards_the_separable_branch(monkeypatch, build, spec):
    # a sign error in one far pair of the per-vessel table must fail the
    # build-time check
    build(spec)
    _flip_first_far_pair(monkeypatch)
    with pytest.raises(kv.InvalidSpecError, match="self-check failed"):
        build(spec)


def test_suite_builds_are_self_checked(monkeypatch):
    _flip_first_far_pair(monkeypatch)
    with pytest.raises(kv.InvalidSpecError, match="discrete self-check failed"):
        suite.run_suite(level="quick", checks=["fixed_vector"])


def test_assembly_emits_no_warnings():
    # the table build divides by k_a^2 - k_b^2, which vanishes on the
    # diagonal; x = t = 0 zeroes every sinc argument
    specs = [
        kv.DiscreteSpectrum(k=np.array([0.7, 1.0, 1.0 + 1e-6, 2.2]), b=np.full(4, 0.3)),
        kv.DiscreteSpectrum(k=np.array([0.7, 1.0, 1.0 + 1e-6, 2.2]),
                            b=np.array([0.3, 0.2j, 0.1 - 0.2j, 0.3])),
        kv.gauss_legendre_spectrum(1.2, 32, lambda s: 0.5 * np.exp(-(s**2))),
    ]
    xs, ts = np.linspace(-1.0, 1.0, 5), np.linspace(-0.2, 0.2, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in specs:
            build = (kv.build_discrete_vessel if isinstance(spec, kv.DiscreteSpectrum)
                     else kv.build_quadrature_vessel)
            vessel = build(spec)
            kv.evaluate_fields(vessel, xs, ts)
            vessel.X(0.0, 0.0)
            core.lyapunov_residual(vessel, 0.0, 0.0)


class TestBuildDiscreteVessel:
    def test_identity_at_origin(self, discrete_12):
        _, vessel = discrete_12
        assert np.allclose(vessel.X(0.0, 0.0), np.eye(2), atol=1e-15)

    def test_diagonal_entry_at_pi(self):
        spec = kv.DiscreteSpectrum(k=np.array([1.0]), b=np.array([1.0]))
        vessel = kv.build_discrete_vessel(spec)
        assert vessel.X(np.pi, 0.0)[0, 0] == pytest.approx(1.0 + np.pi / 2.0, abs=1e-12)

    def test_vessel_conditions_hold(self, discrete_12):
        # the identities are exact; residuals shrink at order 2 with the step
        _, vessel = discrete_12
        rep = kv.evolution_residuals(vessel, 0.7, 0.3, h=1e-3)
        rep2 = kv.evolution_residuals(vessel, 0.7, 0.3, h=5e-4)
        assert rep.max_differential() < 1e-4
        for a, b in zip((rep.r_DB, rep.r_DX, rep.r_DBt, rep.r_DXt),
                        (rep2.r_DB, rep2.r_DX, rep2.r_DBt, rep2.r_DXt)):
            assert 3.5 < a / b < 4.5
        assert kv.lyapunov_residual(vessel, 0.7, 0.3) < 1e-12
        assert kv.normalization_residual(vessel, 0.7, 0.3) < 1e-12

    def test_small_wavenumber_conditions_below_tolerance(self):
        spec = kv.DiscreteSpectrum(k=np.array([0.7, 1.1]), b=np.array([0.6, 0.6]))
        vessel = kv.build_discrete_vessel(spec)
        rep = kv.evolution_residuals(vessel, 0.3, 0.15, h=1e-3)
        assert rep.max_differential() < 1e-6

    def test_secular_diagonal_shift(self):
        # B is exactly T-periodic when k_n = n, but the Gram diagonal picks up
        # the constant shift T |b_n|^2 / (2 k_n^2): the origin of the
        # periodicity failure of beta for truncations
        spec = kv.DiscreteSpectrum(k=np.array([1.0, 2.0]), b=np.array([0.4, 0.3]),
                                   flavor="periodic", period=2 * np.pi)
        vessel = kv.build_discrete_vessel(spec)
        T = 2 * np.pi
        x, t = 0.7, 0.2
        assert np.allclose(vessel.B(x + T, t), vessel.B(x, t), atol=1e-12)
        shift = vessel.X(x + T, t) - vessel.X(x, t)
        expected = np.diag(T * np.abs(spec.b) ** 2 / (2.0 * spec.k**2))
        assert np.allclose(shift, expected, atol=1e-12)


class TestBuildQuadratureVessel:
    def test_zero_density(self):
        spec = kv.gauss_legendre_spectrum(1.0, 8, lambda s: np.zeros_like(s))
        vessel = kv.build_quadrature_vessel(spec)
        assert np.array_equal(vessel.X(0.8, 0.1), np.eye(8))

    def test_lyapunov_identity(self, quadrature_gauss):
        _, vessel = quadrature_gauss
        rng = np.random.default_rng(43)
        for _ in range(10):
            assert kv.lyapunov_residual(vessel, rng.uniform(-2, 2), rng.uniform(-0.5, 0.5)) < 1e-12

    def test_node_doubling_stability(self):
        density = lambda s: 0.8 * np.exp(-(s**2))
        betas = {}
        for n in (32, 64):
            spec = kv.gauss_legendre_spectrum(1.5, n, density)
            vessel = kv.build_quadrature_vessel(spec)
            betas[n] = kv.evaluate(vessel, 0.7, 0.0).beta
        assert abs(betas[64] - betas[32]) < 1e-10

    def test_spec_validation(self):
        with pytest.raises(kv.InvalidSpecError):
            kv.QuadratureSpectrum(nodes=np.array([0.5, 0.4]), weights=np.array([1.0, 1.0]),
                                  density=lambda s: s)
        with pytest.raises(kv.InvalidSpecError):
            kv.QuadratureSpectrum(nodes=np.array([0.5, 0.6]), weights=np.array([1.0, -1.0]),
                                  density=lambda s: s)


class TestFixedVector:
    """The idealized identity X(x,0) v = v fails for every truncation; these
    tests pin the honest behavior of the residual."""

    def test_zero_seed_convention(self, discrete_12):
        _, vessel = discrete_12
        assert kv.fixed_vector_residual(vessel, 0.0) == 0.0

    def test_matches_dense_oracle(self, discrete_12):
        spec, vessel = discrete_12
        x = 1.0
        v = spec.b * np.sin(spec.k * x) / spec.k
        oracle = np.linalg.norm(vessel.X(x, 0.0) @ v - v) / np.linalg.norm(v)
        assert kv.fixed_vector_residual(vessel, x) == pytest.approx(oracle, rel=1e-12)

    def test_violation_scale_is_order_b_squared(self, discrete_12):
        # X v - v = Gram(x) v with Gram ~ O(|b|^2 x): nowhere near roundoff
        _, vessel = discrete_12
        assert kv.fixed_vector_residual(vessel, 1.0) == pytest.approx(0.4147053204, abs=1e-9)

    def test_weak_coupling_quadratic_scaling(self):
        res = {}
        for eps in (1e-2, 1e-3):
            spec = kv.DiscreteSpectrum(k=np.array([1.0, 2.0]),
                                       b=eps * np.array([1.0, 1.0]))
            vessel = kv.build_discrete_vessel(spec)
            res[eps] = kv.fixed_vector_residual(vessel, 1.0)
        assert res[1e-2] / res[1e-3] == pytest.approx(100.0, rel=1e-2)

    def test_quadrature_counterpart(self, quadrature_gauss):
        _, vessel = quadrature_gauss
        r = kv.fixed_vector_residual(vessel, 0.5)
        # node-wise dense oracle
        v = vessel.B(0.5, 0.0)[:, 0]
        oracle = np.linalg.norm(vessel.X(0.5, 0.0) @ v - v) / np.linalg.norm(v)
        assert r == pytest.approx(oracle, rel=1e-12)
        assert r > 1e-3  # the identity does not hold for the discretization

    def test_rejects_other_kinds(self, one_soliton):
        _, vessel = one_soliton
        with pytest.raises(kv.InvalidSpecError):
            kv.fixed_vector_residual(vessel, 1.0)

    def test_broadcasts_over_x(self, quadrature_gauss):
        # against the dense oracle point by point; x = 0 keeps the v = 0 convention
        _, vessel = quadrature_gauss
        xs = np.array([[0.5, -1.3, 0.0], [2.2, 0.1, -4.0]])
        res = kv.fixed_vector_residual(vessel, xs)
        assert res.shape == xs.shape and res[0, 2] == 0.0
        for i in np.ndindex(xs.shape):
            if xs[i] != 0.0:
                v = vessel.B(xs[i], 0.0)[:, 0]
                oracle = np.linalg.norm(vessel.X(xs[i], 0.0) @ v - v) / np.linalg.norm(v)
                assert res[i] == pytest.approx(oracle, rel=1e-13)

    def test_small_stacks_equal_one_stack_bitwise(self, monkeypatch, quadrature_gauss):
        _, vessel = quadrature_gauss
        xs = np.linspace(-4.0, 4.0, 35).reshape(5, 7)  # x = 0 at [2, 3]
        whole = kv.fixed_vector_residual(vessel, xs)
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", 3 * vessel.n**2)
        stacked = kv.fixed_vector_residual(vessel, xs)
        assert stacked.shape == xs.shape and stacked[2, 3] == 0.0
        assert stacked.tobytes() == whole.tobytes()
        assert type(kv.fixed_vector_residual(vessel, 0.5)) is float

    def test_memory_is_flat_in_the_points(self):
        # 4,000 points at n = 64: the unstacked X alone is 131 MB
        vessel = _gl_vessel(64)[2]
        xs = np.random.default_rng(0).uniform(-5.0, 5.0, 4_000)
        tracemalloc.start()
        try:
            kv.fixed_vector_residual(vessel, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestBetaOdd:
    def test_weak_coupling_links_to_vessel_beta(self):
        # the vessel beta at t = 0 is minus the odd-profile mode sum
        # sum_n |b_n|^2 sin^2(k_n x) / k_n^2 up to O(|b|^4): the mode sum
        # describes the vessel only to first order in |b|^2
        eps = 1e-3
        spec = kv.DiscreteSpectrum(k=np.array([1.0, 2.0]), b=eps * np.array([1.0, 1.0]))
        vessel = kv.build_discrete_vessel(spec)
        for x in (0.5, 1.0, 2.0):
            mode_sum = np.sum(np.abs(spec.b) ** 2 * np.sin(spec.k * x) ** 2 / spec.k**2)
            assert abs(kv.evaluate(vessel, x, 0.0).beta + mode_sum) < 10 * eps**4

