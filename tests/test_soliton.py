import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest

import kdvessel as kv
from kdvessel import core, soliton, suite


class TestSolitonSpec:
    def test_rejects_nonpositive_wavenumbers(self):
        with pytest.raises(kv.InvalidSpecError):
            kv.SolitonSpec(k=np.array([1.0, -2.0]), b=np.array([1.0, 1.0]))

    def test_rejects_duplicate_wavenumbers(self):
        with pytest.raises(kv.InvalidSpecError):
            kv.SolitonSpec(k=np.array([1.0, 1.0]), b=np.array([1.0, 1.0]))

    def test_rejects_zero_amplitudes(self):
        with pytest.raises(kv.InvalidSpecError):
            kv.SolitonSpec(k=np.array([1.0]), b=np.array([0.0]))

    def test_c_normalization_roundtrip(self):
        spec = kv.SolitonSpec.from_c([0.5, 2.0], [1.0, 3.0])
        assert spec.c == pytest.approx([1.0, 3.0])
        assert spec.b == pytest.approx(np.sqrt(2.0 * spec.k * spec.c))


class TestBuildSoliton:
    def test_origin_values(self, one_soliton):
        _, vessel = one_soliton
        assert vessel.X(0.0, 0.0) == pytest.approx(np.array([[2.0]]), abs=1e-15)
        assert vessel.B(0.0, 0.0) == pytest.approx(
            np.array([[np.sqrt(2.0), 1j * np.sqrt(2.0)]]), abs=1e-15
        )

    def test_generator_entries(self, three_soliton):
        _, vessel = three_soliton
        assert np.array_equal(vessel.A, np.diag([-1j, -4j, -9j]))

    def test_small_amplitude_limit(self):
        spec = kv.SolitonSpec(k=np.array([1.0]), b=np.array([1e-8 + 0j]))
        vessel = kv.build_soliton(spec)
        assert abs(kv.evaluate(vessel, 0.3, 0.1).tau - 1.0) < 1e-15
        assert abs(kv.q_soliton(spec, 0.3, 0.1)) < 1e-14

    def test_self_check_runs(self):
        kv.build_soliton(kv.SolitonSpec.from_c([0.7, 1.2], [1.0, 1.0]))  # no raise

    @pytest.mark.parametrize("k", [8.884, 8.886, 9.0, 20.0, 40.0])
    def test_builds_at_any_k(self, k):
        # the self-check reads the finite scaled pair: from k = 8.886 the
        # plain X overflows in its box, and the fields on the CLI's default
        # grid still match the sech^2 profile
        vessel = kv.build_soliton(kv.SolitonSpec(k=[k], b=[1.0]))
        X, T = np.meshgrid(np.linspace(-5.0, 5.0, 41), np.linspace(-0.5, 0.5, 9),
                           indexing="ij")
        q = kv.evaluate_fields(vessel, X, T).q
        ref = kv.one_soliton_reference(k, 1.0 / (2.0 * k), X, T)
        assert np.all(np.abs(q - ref) <= 1e-11 * (1.0 + np.abs(q)))

    def test_suite_builds_are_self_checked(self, monkeypatch):
        # a Hermitian perturbation of one off-diagonal Gram pair breaks the
        # Lyapunov identity, so the suite's soliton build must refuse it
        gram = soliton._gram

        def perturbed(spec):
            G = gram(spec).copy()
            G[0, 1] += 1e-3
            G[1, 0] += 1e-3
            return G

        monkeypatch.setattr(soliton, "_gram", perturbed)
        with pytest.raises(kv.InvalidSpecError, match="soliton self-check failed"):
            suite.run_suite(level="quick", checks=["cauchy_determinant"])


class TestDerivedOperators:
    """The plain B and X that a soliton vessel derives from its scaled pair,
    against the closed forms X = I + E G E and B row j = e^phi_j b_j (1, i k_j)
    assembled here from the spec."""

    def test_match_the_closed_forms(self, three_soliton):
        spec, vessel = three_soliton
        k, b = spec.k, spec.b
        xs, ts = np.random.default_rng(0).uniform([-3.0, -0.5], [3.0, 0.5], size=(2000, 2)).T
        phi = np.multiply.outer(xs, k) + np.multiply.outer(ts, k**3)
        E = np.exp(phi)
        G = np.outer(b, b.conj()) / (k[:, None] + k[None, :])
        want_X = np.eye(3) + E[:, :, None] * E[:, None, :] * G
        want_B = (E * b)[:, :, None] * np.stack([np.ones(3), 1j * k], axis=-1)
        got_B, got_X = vessel.B(xs, ts), vessel.X(xs, ts)
        for got, want in ((got_B, want_B), (got_X, want_X)):
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
        cold = (phi <= 0.0).all(axis=-1)  # D = I: no rounding of its own
        assert 0 < cold.sum() < cold.size
        assert np.array_equal(got_B[cold], want_B[cold])
        assert np.array_equal(got_X[cold], want_X[cold])


class TestCauchyTau3:
    def test_pair_coefficients(self):
        # a_ij = (k_i - k_j)^2 / (k_i + k_j)^2 for k = (1, 2, 3)
        k = np.array([1.0, 2.0, 3.0])
        a = lambda i, j: (k[i] - k[j]) ** 2 / (k[i] + k[j]) ** 2
        assert a(0, 1) == pytest.approx(1.0 / 9.0)
        assert a(0, 2) == pytest.approx(1.0 / 4.0)
        assert a(1, 2) == pytest.approx(1.0 / 25.0)

    def test_origin_value(self, three_soliton):
        spec, _ = three_soliton
        assert kv.tau_cauchy_3(spec, 0.0, 0.0) == pytest.approx(4.0 + 362.0 / 900.0, rel=1e-14)

    def test_matches_determinant_at_random_points(self, three_soliton, plain_copy):
        # det D M D of the scaled pair and det X of the derived plain X
        spec, vessel = three_soliton
        rng = np.random.default_rng(23)
        for _ in range(100):
            x, t = rng.uniform(-3, 3), rng.uniform(-3, 3)
            for v in (vessel, plain_copy(vessel)):
                logabs, sign = kv.log_tau(v, x, t)
                tv = sign * np.exp(logabs)
                assert abs(tv - kv.tau_cauchy_3(spec, x, t)) / abs(tv) < 1e-10

    def test_independent_expansion_oracle(self):
        # full closed form re-derived in place at a generic point
        spec = kv.SolitonSpec.from_c([0.5, 1.1, 1.7], [0.8, 1.2, 0.6])
        k, c = spec.k, spec.c
        x, t = 0.7, -0.4
        E = np.exp(2 * k * x + 2 * k**3 * t)
        a = {(i, j): (k[i] - k[j]) ** 2 / (k[i] + k[j]) ** 2
             for i in range(3) for j in range(3) if i < j}
        expected = (
            1.0 + np.sum(c * E)
            + c[0] * c[1] * a[(0, 1)] * E[0] * E[1]
            + c[0] * c[2] * a[(0, 2)] * E[0] * E[2]
            + c[1] * c[2] * a[(1, 2)] * E[1] * E[2]
            + np.prod(c) * a[(0, 1)] * a[(0, 2)] * a[(1, 2)] * np.prod(E)
        )
        assert kv.tau_cauchy_3(spec, x, t) == pytest.approx(expected, rel=1e-14)

    def test_requires_three_generators(self):
        with pytest.raises(kv.InvalidSpecError):
            kv.tau_cauchy_3(kv.SolitonSpec.from_c([1.0], [1.0]), 0.0, 0.0)


class TestQSoliton:
    def test_origin_value(self):
        spec = kv.SolitonSpec.from_c([1.0], [1.0])
        assert kv.q_soliton(spec, 0.0, 0.0) == pytest.approx(-2.0, abs=1e-13)

    def test_matches_log_tau_second_difference(self, three_soliton):
        spec, vessel = three_soliton
        rng = np.random.default_rng(29)
        worst = {1e-3: 0.0, 5e-4: 0.0}
        for _ in range(20):
            x, t = rng.uniform(-1.5, 1.5), rng.uniform(-0.3, 0.3)
            q = kv.q_soliton(spec, x, t)
            for h in worst:
                fd = -2.0 * (
                    kv.log_tau(vessel, x + h, t)[0]
                    - 2.0 * kv.log_tau(vessel, x, t)[0]
                    + kv.log_tau(vessel, x - h, t)[0]
                ) / h**2
                worst[h] = max(worst[h], abs(q - fd))
        assert worst[1e-3] < 1e-4
        assert kv.convergence_order(worst[1e-3], worst[5e-4]) > 1.9

    def test_traveling_wave_translation(self):
        spec = kv.SolitonSpec.from_c([1.3], [0.7])
        rng = np.random.default_rng(31)
        for _ in range(20):
            x, t = rng.uniform(-3, 3), rng.uniform(-2, 2)
            assert abs(
                kv.q_soliton(spec, x, t) - kv.q_soliton(spec, x + spec.k[0] ** 2 * t, 0.0)
            ) < 1e-10

    def test_tau_exceeds_one(self):
        spec = kv.SolitonSpec.from_c([0.6, 1.4], [1.0, 2.0])
        vessel = kv.build_soliton(spec)
        rng = np.random.default_rng(37)
        for _ in range(20):
            logabs, sign = kv.log_tau(vessel, rng.uniform(-3, 3), rng.uniform(-1, 1))
            assert sign == 1.0 and logabs > 0.0


class TestOneSolitonReference:
    def test_origin(self):
        assert kv.one_soliton_reference(1.0, 1.0, 0.0, 0.0) == pytest.approx(-2.0, abs=1e-15)

    def test_decay(self):
        assert abs(kv.one_soliton_reference(1.0, 1.0, 50.0, 0.0)) < 1e-30
        assert abs(kv.one_soliton_reference(1.0, 1.0, -50.0, 0.0)) < 1e-30

    def test_logistic_form_oracle(self):
        # q = -8 k^2 u/(1+u)^2 with u = c e^{2(kx + k^3 t)}
        rng = np.random.default_rng(41)
        for _ in range(20):
            k = rng.uniform(0.3, 2.0)
            c = rng.uniform(0.2, 3.0)
            x, t = rng.uniform(-5, 5), rng.uniform(-1, 1)
            u = c * np.exp(2 * (k * x + k**3 * t))
            expected = -8.0 * k**2 * u / (1.0 + u) ** 2
            assert kv.one_soliton_reference(k, c, x, t) == pytest.approx(expected, rel=1e-12)

    def test_equals_second_log_derivative(self):
        # -2 d^2/dx^2 log(1 + c e^{2 k x + 2 k^3 t}) by centered differences
        k, c, x, t, h = 0.9, 1.4, 0.6, -0.2, 1e-4
        logtau = lambda z: np.log(1.0 + c * np.exp(2 * k * z + 2 * k**3 * t))
        fd = -2.0 * (logtau(x + h) - 2 * logtau(x) + logtau(x - h)) / h**2
        assert kv.one_soliton_reference(k, c, x, t) == pytest.approx(fd, abs=1e-6)

    def test_profile_identity_on_grid(self):
        xs = np.linspace(-10, 10, 201)[:, None]
        ts = np.linspace(-2, 2, 41)[None, :]
        for k in (0.5, 1.0, 2.0):
            spec = kv.SolitonSpec.from_c([k], [1.0])
            diff = np.abs(kv.q_soliton(spec, xs, ts) - kv.one_soliton_reference(k, 1.0, xs, ts))
            assert diff.max() < 1e-8

    def test_rejects_bad_parameters(self):
        with pytest.raises(kv.InvalidSpecError):
            kv.one_soliton_reference(-1.0, 1.0, 0.0, 0.0)
        with pytest.raises(kv.InvalidSpecError):
            kv.one_soliton_reference(1.0, 0.0, 0.0, 0.0)


class TestOverflowRegime:
    def test_far_field_matches_reference(self):
        spec = kv.SolitonSpec.from_c([2.0], [1.0])
        xs = np.array([-300.0, -50.0, 3.9, 4.1, 50.0, 300.0])
        diff = np.abs(kv.q_soliton(spec, xs, 1.5)
                      - kv.one_soliton_reference(2.0, 1.0, xs, 1.5))
        assert diff.max() < 1e-12

    def test_beta_saturates(self):
        # beta -> -2 sum k on the right tail, -> 0 on the left tail
        vessel = kv.build_soliton(kv.SolitonSpec.from_c([0.5, 1.5], [1.0, 1.0]))
        beta = kv.evaluate_fields(vessel, np.array([200.0, -200.0]), 0.0).beta
        assert beta[0] == pytest.approx(-2 * (0.5 + 1.5), abs=1e-10)
        assert abs(beta[1]) < 1e-30

    def test_branches_agree_at_switch(self):
        # continuity of beta/q where D = diag(max(1, e^phi)) switches at
        # phi = 0: both generators cross it at x = 0, then the phases pass 8
        spec = kv.SolitonSpec.from_c([1.0, 1.6], [1.0, 0.5])
        xs = np.linspace(-3.0, 7.0, 5001)
        fields = kv.evaluate_fields(kv.build_soliton(spec), xs, 0.0)
        assert np.all(np.isfinite(fields.beta))
        for q in (kv.q_soliton(spec, xs, 0.0), fields.q):
            assert np.all(np.isfinite(q))
            # second difference stays at truncation scale: no jump at the seam
            d2 = np.abs(np.diff(q, n=2))
            assert d2.max() < 1e-4

    def test_log_tau_deep_regime(self):
        vessel = kv.build_soliton(kv.SolitonSpec.from_c([1.0, 2.0], [1.0, 1.0]))
        logabs, sign = kv.log_tau(vessel, 500.0, 0.0)
        assert sign == 1.0
        # tau ~ c1 c2 a12 e^{2(k1+k2)x}: log tau ~ 2*3*500 + log(a12)
        a12 = (1.0 - 2.0) ** 2 / (1.0 + 2.0) ** 2
        assert logabs == pytest.approx(3000.0 + np.log(a12), abs=1e-6)


def _point_major_scaled_system(spec, x, t):
    """The scaled pair formed point-major, the generator axes last: the
    formula _scaled_system must reproduce bit for bit."""
    k, b, n = spec.k, spec.b, spec.n
    phi = np.multiply.outer(x, k) + np.multiply.outer(t, k**3)
    log_d = np.maximum(phi, 0.0)
    e = np.exp(np.minimum(phi, 0.0))
    M = e[..., :, None] * e[..., None, :] * soliton._gram(spec)
    M[..., np.arange(n), np.arange(n)] += np.exp(-2.0 * log_d)
    return M, e * (b if b.imag.any() else b.real), log_d


class TestScaledSystem:
    """soliton._scaled_system: the contract shapes, C-contiguous, with the
    bits of the point-major formula."""

    RNG = np.random.default_rng(5)
    POINTS = {
        "scalar": (0.3, -0.2),
        "1-D": (RNG.uniform(-20.0, 20.0, 37), RNG.uniform(-1.0, 1.0, 37)),
        "2-D": (RNG.uniform(-20.0, 20.0, (9, 5)), RNG.uniform(-1.0, 1.0, (9, 5))),
        "array x, scalar t": (RNG.uniform(-20.0, 20.0, 23), 0.4),
        "broadcast": (RNG.uniform(-20.0, 20.0, (6, 1)), RNG.uniform(-1.0, 1.0, 4)),
        # k x past +-745 for k up to 2.5: e^phi underflows to 0 or overflows
        "past the float range": (np.array([-800.0, -745.5, -300.0, 0.0, 300.0, 745.5, 800.0]),
                                 np.array([0.0, -1.0, 0.5, 0.0, 1.0, 0.0, -0.5])),
    }

    @pytest.mark.parametrize("points", list(POINTS), ids=list(POINTS))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("phased", [False, True], ids=["real-b", "complex-b"])
    def test_bitwise_equal_to_the_point_major_formula(self, points, n, phased):
        rng = np.random.default_rng(n + 10 * phased)
        b = rng.uniform(0.5, 2.0, n) * (np.exp(1j * rng.uniform(0.0, 6.0, n)) if phased else 1.0)
        spec = kv.SolitonSpec(k=np.linspace(0.4, 2.5, n) if n > 1 else [1.3], b=b)
        x, t = self.POINTS[points]
        S = np.broadcast_shapes(np.shape(x), np.shape(t))
        got = soliton._scaled_system(spec, x, t)
        for a, want, shape in zip(got, _point_major_scaled_system(spec, x, t),
                                  (S + (n, n), S + (n,), S + (n,))):
            assert a.shape == shape and a.dtype == want.dtype
            assert a.flags.c_contiguous
            assert a.tobytes() == want.tobytes()
        assert np.iscomplexobj(got[0]) == (phased and n > 1)  # relative phases only
        assert np.isfinite(got[0]).all()
        if points == "past the float range":
            phi = np.multiply.outer(x, spec.k) + np.multiply.outer(t, spec.k**3)
            assert phi.min() < -745.0 and phi.max() > 745.0


class TestStacks:
    """q_soliton and the scaled pair's evaluate_fields and log_tau evaluate
    in the stacks of ``core._per_point``."""

    SPEC = kv.SolitonSpec(k=[0.6, 1.1, 1.7], b=[1.2, 0.8, 1.5])
    VESSEL = kv.build_soliton(SPEC)

    def _values(self, x, t):
        fields = kv.evaluate_fields(self.VESSEL, x, t)
        return [kv.q_soliton(self.SPEC, x, t), *kv.log_tau(self.VESSEL, x, t),
                fields.beta, fields.beta_prime, fields.log_abs_tau, fields.tau_sign]

    @pytest.mark.parametrize("entries", [1, 4 * 9], ids=["one-point", "four-points"])
    def test_small_stacks_equal_one_stack_bitwise(self, monkeypatch, entries):
        # 31 x 7 = 217 points, from left tails to tau past the float range
        X, T = np.meshgrid(np.linspace(-150.0, 150.0, 31), np.linspace(-0.5, 0.5, 7),
                           indexing="ij")
        whole = self._values(X, T)
        assert np.isinf(kv.evaluate_fields(self.VESSEL, X, T).tau).any()
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", entries)
        for one, stacked in zip(whole, self._values(X, T)):
            assert stacked.shape == X.shape
            assert stacked.tobytes() == one.tobytes()

    def test_scalar_points_give_floats(self, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", 1)
        q, logabs, sign = self._values(0.3, 0.1)[:3]
        for v in (q, logabs, sign):
            assert type(v) is float
        assert q == pytest.approx(kv.evaluate_fields(self.VESSEL, 0.3, 0.1).q, rel=1e-13)

    def test_fields_memory_is_flat_in_the_grid(self):
        # 2001 x 101 points at n = 8: one unstacked M alone is 208 MB.  From
        # x ~ 2.6 M tends to the Cauchy matrix G (cond up to 4e11), where
        # most values miss 60-digit mpmath by more than TestMpmathOracle
        # allows (q by up to 1.8e-5), so evaluate_fields' gate refuses them
        # and its pass stops at the first; q_soliton, which has no gate,
        # runs over every point.
        spec = kv.SolitonSpec(k=np.linspace(0.6, 2.0, 8), b=np.ones(8))
        vessel = kv.build_soliton(spec)
        X, T = np.meshgrid(np.linspace(-10.0, 10.0, 2001), np.linspace(-0.5, 0.5, 101),
                           indexing="ij")
        tracemalloc.start()
        try:
            kv.q_soliton(spec, X, T)
            with pytest.raises(kv.EvaluationError, match="ill-conditioned") as exc:
                kv.evaluate_fields(vessel, X, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert exc.value.x > 0.0  # the pass got past the grid's left half


class TestSingularPoints:
    """A zero pivot of the scaled M raises EvaluationError at its point in
    q_soliton and log_tau; evaluate_fields' gate refuses earlier points."""

    POINT = (5.0, 0.9090909090909092)

    @staticmethod
    def _spec(cfg):
        return kv.SolitonSpec(k=cfg["k"], b=cfg["b_abs"])

    def test_the_point(self, close_soliton):
        spec = self._spec(close_soliton)
        vessel = kv.build_soliton(spec)
        for call in (lambda: kv.q_soliton(spec, *self.POINT),
                     lambda: kv.log_tau(vessel, *self.POINT),
                     lambda: kv.evaluate_fields(vessel, *self.POINT)):
            with pytest.raises(kv.EvaluationError, match="singular") as exc:
                call()
            assert (exc.value.x, exc.value.t) == self.POINT

    @pytest.mark.parametrize("entries", [core._CHUNK_ENTRIES, 64 * 16],
                             ids=["default-stacks", "16-point-stacks"])
    def test_first_point_of_the_grid_in_c_order(self, monkeypatch, entries, close_soliton,
                                                close_soliton_grid, close_soliton_first_gated):
        X, T = close_soliton_grid
        assert X.size > entries // 64  # n = 8: the grid spans several stacks
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", entries)
        spec = self._spec(close_soliton)
        vessel = kv.build_soliton(spec)
        for fn in (lambda: kv.q_soliton(spec, X, T), lambda: kv.log_tau(vessel, X, T)):
            with pytest.raises(kv.EvaluationError, match="singular") as exc:
                fn()
            assert (exc.value.x, exc.value.t) == self.POINT
        with pytest.raises(kv.EvaluationError) as exc:
            kv.evaluate_fields(vessel, X, T)
        x, t, message = close_soliton_first_gated
        assert (exc.value.x, exc.value.t) == (x, t) and str(exc.value) == message


class TestMpmathOracle:
    """evaluate_fields of the soliton vessel against a 60-digit log det X and
    its x-derivatives."""

    K = {1: [0.9], 2: [0.6, 1.3], 3: [0.5, 1.1, 1.8]}
    B = {1: [1.4], 2: [1.1, 0.7], 3: [0.8, 1.5, 1.2]}
    POINTS = [
        (-2.5, 0.1),    # every phase < 0
        (1.0, -1.0),    # mixed signs for n >= 2: phi = k (1 - k^2) changes sign at k = 1
        (2.0, 0.05),    # 0 < phi < 8
        (30.0, 0.0),    # phi > 8
        (200.0, 0.0),   # e^{2 phi} past the float range
        (-200.0, 0.0),  # e^{2 phi} below the float range
    ]

    @staticmethod
    def _log_det(k, b, x, t):
        # Leibniz expansion: mpmath.det's LU declares X singular once its
        # entries span more decades than the working precision
        n = len(k)
        E = [mpmath.exp(k[i] * x + k[i] ** 3 * t) for i in range(n)]
        X = [[(i == j) + E[i] * E[j] * b[i] * b[j] / (k[i] + k[j]) for j in range(n)]
             for i in range(n)]
        det = 0
        for p in itertools.permutations(range(n)):
            inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
            det += (-1) ** inversions * mpmath.fprod(X[i][p[i]] for i in range(n))
        return mpmath.log(det)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fields_match_high_precision_log_det(self, n):
        spec = kv.SolitonSpec(k=np.array(self.K[n]), b=np.array(self.B[n], dtype=complex))
        xs, ts = (np.array(v) for v in zip(*self.POINTS))
        phi = np.multiply.outer(xs, spec.k) + np.multiply.outer(ts, spec.k**3)
        assert (phi[0] < 0).all() and (0 < phi[2]).all() and (phi[2] < 8).all()
        assert (phi[3] > 8).all() and (n == 1 or phi[1].min() < 0 < phi[1].max())
        fields = kv.evaluate_fields(kv.build_soliton(spec), xs, ts)
        bound = {"log tau": 1e-13, "beta": 1e-12, "q": 5e-11}
        with mpmath.workdps(60):
            k = [mpmath.mpf(v) for v in self.K[n]]
            b = [mpmath.mpf(v) for v in self.B[n]]
            for i, (x, t) in enumerate(self.POINTS):
                t = mpmath.mpf(t)
                log_tau = lambda z: self._log_det(k, b, z, t)
                ref = {
                    "log tau": log_tau(mpmath.mpf(x)),
                    "beta": -mpmath.diff(log_tau, x),
                    "q": -2 * mpmath.diff(log_tau, x, 2),
                }
                got = {"log tau": fields.log_abs_tau[i], "beta": fields.beta[i],
                       "q": fields.q[i]}
                for what, r in ref.items():
                    err = abs(got[what] - r) / (1 + abs(r))
                    assert err <= bound[what], (what, x, t, float(err))
                assert fields.tau_sign[i] == 1.0


class TestCloseWavenumberDump:
    """The close-wavenumber 8-soliton of ``close_soliton`` on the dump path:
    a point whose scaled M is too ill-conditioned is refused, and the points
    that pass the gate match 60-digit values."""

    @staticmethod
    def _vessel(cfg):
        return kv.build_soliton(kv.SolitonSpec(k=cfg["k"], b=cfg["b_abs"]))

    def test_dump_path_refuses_the_ill_conditioned_point(self, close_soliton):
        # the trace formula returns q = +1.262 at (7.6, 1.0), where the
        # 60-digit value is -0.345; this grid's first point is (7.6, 1.0)
        vessel = self._vessel(close_soliton)
        grid = kv.Grid2D(7.6, 9.2, 9, 1.0, 1.8, 9)
        for call in (lambda: kv.evaluate_fields(vessel, 7.6, 1.0),
                     lambda: suite.grid_fields(vessel, grid)):
            with pytest.raises(kv.EvaluationError, match="ill-conditioned") as exc:
                call()
            assert (exc.value.x, exc.value.t) == (7.6, 1.0)

    @staticmethod
    def _log_det(k, b, x, t, log_d0):
        # log det of D0^-1 X D0^-1 with D0 fixed, so x-derivatives are those
        # of log tau; the scaled entries stay within the working precision
        n = len(k)
        e = [mpmath.exp(k[i] * x + k[i] ** 3 * t - log_d0[i]) for i in range(n)]
        X = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                X[i, j] = (i == j) * mpmath.exp(-2 * log_d0[i]) + e[i] * e[j] * b[i] * b[j] / (k[i] + k[j])
        return mpmath.log(mpmath.det(X))

    @pytest.mark.parametrize("point", [(-2.0, 0.9090909090909092), (2.8000000000000043, 0.0),
                                       (7.600000000000001, -1.0)])
    def test_q_matches_high_precision_where_the_gate_passes(self, close_soliton, point):
        # grid points of close_soliton_grid where the plain X fails the gate
        q = float(kv.evaluate_fields(self._vessel(close_soliton), *point).q)
        with mpmath.workdps(60):
            k = [mpmath.mpf(v) for v in close_soliton["k"]]
            b = [mpmath.mpf(v) for v in close_soliton["b_abs"]]
            x, t = (mpmath.mpf(v) for v in point)
            log_d0 = [max(mpmath.mpf(0), k[i] * x + k[i] ** 3 * t) for i in range(len(k))]
            ref = -2 * mpmath.diff(lambda z: self._log_det(k, b, z, t, log_d0), x, 2)
            err = abs(q - ref) / (1 + abs(ref))
        assert err <= 5e-11, (point, float(err))  # the bound of TestMpmathOracle
