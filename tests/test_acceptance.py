"""Acceptance battery: every criterion at its stated tolerance, full scale.

Each test runs the corresponding named check from :mod:`kdvessel.suite` at
the full level and prints one pass/fail line per sub-check.

Three criteria assert idealized infinite-dimensional identities that finite
truncations provably violate, and they fail here by design rather than
being loosened:

  * criterion 8 (fixed-vector identity): X(x,0) - I is a positive
    semidefinite Gram matrix, so X v != v for the nonzero odd seed;
  * criterion 10, conservation clause: the weighted coefficient-flow sum
    only cancels on an additively closed (infinite) lattice;
  * criterion 11 (periodicity): the Gram diagonal carries an exactly
    computable secular shift, so the vessel's beta is not periodic.

The other nine criteria (and the remaining clauses of 10) pass.  See the
module docstrings of kdvessel.spectral and kdvessel.evolution for the
analysis, and README for the summary.
"""

import pytest

from kdvessel import suite

SEED = 20240601
LEVEL = "full"


def _run(name):
    rng_results = suite.run_suite(level=LEVEL, seed=SEED, checks=[name])[1]
    for r in rng_results:
        print(r.line())
    return rng_results


def _assert_all(results, subset=None):
    chosen = [r for r in results if subset is None or any(s in r.check for s in subset)]
    bad = [r for r in chosen if not r.passed]
    assert not bad, "failed sub-checks:\n" + "\n".join(r.line() for r in bad)


def test_criterion_01_one_soliton_identity():
    """max |q_soliton - sech^2 reference| < 1e-8 on the 401x81 grid of
    [-10,10]x[-2,2] for k in {0.5, 1, 2}, c = 1; runtime < 2 s."""
    _assert_all(_run("soliton_profile"))


def test_criterion_02_cauchy_determinant():
    """|tau - tau_cauchy_3|/tau < 1e-10 at 100 random points of [-3,3]^2,
    k = (1,2,3), c = (1,1,1); runtime < 1 s."""
    _assert_all(_run("cauchy_determinant"))


def test_criterion_03_vessel_identities():
    """Lyapunov and normalization residuals < 1e-12 (relative to 1 + ||X||)
    for soliton, discrete and quadrature vessels at 50 random points each."""
    _assert_all(_run("vessel_identities"))


def test_criterion_04_evolution_conditions():
    """All four differential-condition residuals < 1e-6 at h = 1e-3 and
    observed order >= 1.9 under h -> h/2, for each construction.  The
    standard construction is an oracle for every entry of B and X: each
    family's own (A, B(x), X(x)) integrated by RK4 over [x, x + 0.5] must
    match its closed-form B and X within 1e-8 at h = 0.025, with observed
    order > 3.5 against h = 0.05."""
    _assert_all(_run("evolution_conditions"))


def test_criterion_05_kdv_residual():
    """q from the 2- and 3-soliton vessels on [-8,8]x[-1,1]: interior
    residual < 1e-3 at hx = ht = 0.01 with accuracy-4 stencils, observed
    order >= 3.5, runtime < 30 s."""
    _assert_all(_run("kdv_residual"))


def test_criterion_06_transfer_function():
    """Symmetry residual < 1e-10 for 100 seeded lambdas per vessel;
    x-evolution residual order >= 1.9; intertwining residual < 1e-5 at
    h = 1e-3 for lambda = -i."""
    _assert_all(_run("transfer_function"))


def test_criterion_07_gelfand_levitan():
    """Kernel-identity residual < 1e-8 with 201 Simpson nodes on the 1- and
    2-soliton vessels, x0 = 0, (x, y) = (1.5, 0.7); node-doubling
    improvement >= 12."""
    _assert_all(_run("gelfand_levitan"))


def test_criterion_08_fixed_vector():
    """Fixed-vector residual < 1e-10 (discrete, N <= 16) and < 1e-8
    (quadrature, 64 nodes) at 50 random x.

    FAILS BY DESIGN: X(x,0) = I + int_0^x w(y) w(y)* dy with
    w_n(y) = c_n sin(k_n y)/k_n, a PSD perturbation, so the residual is
    O(|b|^2 x) -- already the 1x1 truncation refutes the identity."""
    _assert_all(_run("fixed_vector"))


def test_criterion_09_moment_recursion():
    """All four recursion relations < 1e-6 for n = 0..3 on the 1-soliton
    vessel at 10 random points, FD step 1e-4."""
    _assert_all(_run("moment_recursion"))


@pytest.fixture(scope="module")
def coefficient_evolution_results():
    return _run("coefficient_evolution")


def test_criterion_10_rhs_symmetry_order(coefficient_evolution_results):
    """(k0=1, M=2) lattice: rhs matches brute-force pair enumeration
    bit-exactly; p_N = p_-N within 1e-12 along the flow; integrator order
    ~ 4 under step halving."""
    _assert_all(coefficient_evolution_results,
                subset=("rhs_vs_bruteforce", "symmetry", "integrator_order"))


def test_criterion_10_conservation(coefficient_evolution_results):
    """|sum_N dp_N/k_N^2| < 1e-12 along the integration to t = 0.5.

    FAILS BY DESIGN: the cancellation needs Gamma + Gamma = Gamma; on the
    truncated lattice the flow drives p_1 != p_2 and the residual reaches
    O(1)."""
    _assert_all(coefficient_evolution_results, subset=("conservation",))


def test_criterion_11_periodicity():
    """k_n = 2 pi n / T, n = 1..4, T = 2 pi: beta(x + T, t) and
    beta(x, t + T^3/(2 pi)^2) match beta(x, t) within 1e-10.

    FAILS BY DESIGN: X(x+T, t) = X(x, t) + diag(T |b_n|^2 / (2 k_n^2))
    exactly (secular Gram diagonal), so the vessel's beta cannot be
    periodic for any truncation."""
    _assert_all(_run("periodicity"))


def test_criterion_12_kernel_diag_sign():
    """The matched sign sigma is +1 across all shipped constructions and the
    matched value agrees with the analytic potential within O(h^2); the
    discrepancy report documents the printed -2 convention."""
    results = _run("kernel_diag_sign")
    sigma = [r for r in results if "sigma" in r.check][0]
    assert sigma.detail  # the discrepancy report is generated
    _assert_all(results)
