import dataclasses

import numpy as np
import pytest

import kdvessel as kv


def make_zero_vessel(n=2):
    """Vessel with B identically zero: X stays at the identity.

    Wavenumbers chosen so the spectrum avoids the lambda = -i used in the
    intertwining tests.  B and X come points-last for the m flat points,
    as every vessel's operators must.
    """
    k = 1.2 + 0.7 * np.arange(n)

    def operators(x, t):
        return (np.zeros((n, 2, x.size), dtype=complex),
                np.broadcast_to(np.eye(n, dtype=complex)[..., None], (n, n, x.size)), 0.0)

    return kv.FiniteVessel(
        n=n,
        A=np.diag(-1j * k**2),
        operators=operators,
        X0=np.eye(n, dtype=complex),
        kind="soliton",
    )


def _plain_copy(vessel):
    """The same vessel (A, B, X, X0) with D = I: its operators are the
    plain B = D (D^-1 B) and X = D M D, unchecked, as operators must not
    raise (an overflow passes through as inf for the read to name), so
    every evaluator and the self-check read them in place of the scaled
    pair."""
    def operators(x, t):
        B, M, log_d = vessel.operators(x, t)
        if np.any(log_d):
            with np.errstate(over="ignore", invalid="ignore"):
                d = np.exp(log_d)
                B, M = d[:, None] * B, d[:, None] * d[None, :] * M
        return B, M, 0.0

    return dataclasses.replace(vessel, operators=operators)


@pytest.fixture(scope="session")
def plain_copy():
    return _plain_copy


@pytest.fixture(scope="session")
def zero_vessel():
    return make_zero_vessel()


@pytest.fixture(scope="session")
def one_soliton():
    """The k=1, b=sqrt(2) (c=1) workhorse."""
    spec = kv.SolitonSpec(k=np.array([1.0]), b=np.array([np.sqrt(2.0)], dtype=complex))
    return spec, kv.build_soliton(spec)


@pytest.fixture(scope="session")
def three_soliton():
    spec = kv.SolitonSpec.from_c([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    return spec, kv.build_soliton(spec)


@pytest.fixture(scope="session")
def close_soliton():
    """An 8-soliton vessel config whose close wavenumbers (2.227, 2.232,
    2.247, 2.280) make the scaled Cauchy system M ill-conditioned, and at
    some points singular, in floating point.

    On the 301 x 23 grid of [-30, 30] x [-1, 1] (``close_soliton_grid``),
    21 points have a zero LU pivot of M; the first in C order is
    (x, t) = (5.0, 0.9090909090909092).  The inverse-defect gate of
    ``evaluate_fields`` refuses earlier points (``close_soliton_first_gated``).
    """
    return {
        "type": "soliton",
        "k": [0.4388861571074426, 0.5348503183556012, 0.877368902837907,
              1.8262812193448665, 2.227185854887757, 2.2316104828511034,
              2.2472674640033365, 2.2804413027696646],
        "b_abs": [1.561243351005766, 0.501799525380243, 1.2550459483304968,
                  1.1550005782634791, 0.8048792541718472, 0.9874139668634091,
                  1.7093229965405654, 0.9746781311067352],
    }


@pytest.fixture(scope="session")
def close_soliton_grid():
    """The 301 x 23 points of [-30, 30] x [-1, 1], indexed [ix, it]."""
    return np.meshgrid(np.linspace(-30.0, 30.0, 301), np.linspace(-1.0, 1.0, 23),
                       indexing="ij")


@pytest.fixture(scope="session")
def close_soliton_first_gated(close_soliton, close_soliton_grid):
    """(x, t, message) of the first grid point in C order whose one-point
    evaluate_fields on the ``close_soliton`` vessel raises.

    Computed, not pinned: its inverse defect is a small multiple of the
    gate and may move with the BLAS.
    """
    vessel = kv.build_soliton(kv.SolitonSpec(k=close_soliton["k"], b=close_soliton["b_abs"]))
    for x, t in zip(*(a.ravel().tolist() for a in close_soliton_grid)):
        try:
            kv.evaluate_fields(vessel, x, t)
        except kv.EvaluationError as exc:
            return x, t, str(exc)
    raise AssertionError("every point of the grid passes")


@pytest.fixture(scope="session")
def discrete_12():
    spec = kv.DiscreteSpectrum(k=np.array([1.0, 2.0]), b=np.array([1.0, 1.0], dtype=complex))
    return spec, kv.build_discrete_vessel(spec)


@pytest.fixture(scope="session")
def quadrature_gauss():
    spec = kv.gauss_legendre_spectrum(1.5, 32, lambda s: 0.8 * np.exp(-(s**2)))
    return spec, kv.build_quadrature_vessel(spec)


@pytest.fixture(scope="session")
def rotated_three_soliton(three_soliton):
    """The 3-soliton vessel in the basis of a seeded random unitary U.

    U keeps every vessel condition and B* X^-1 B but makes A non-diagonal,
    so the routines take their general (not diagonal-A) products.
    """
    _, vessel = three_soliton
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    Uh = U.conj().T

    def operators(x, t):
        B, X = vessel.plain(x, t)
        return np.moveaxis(U @ B, 0, -1), np.moveaxis(U @ X @ Uh, 0, -1), 0.0

    return kv.FiniteVessel(n=3, A=U @ vessel.A @ Uh, operators=operators,
                           X0=U @ vessel.X0 @ Uh, kind="rotated")
