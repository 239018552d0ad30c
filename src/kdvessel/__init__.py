"""KdV solutions from finite-dimensional operator vessel realizations.

Soliton, truncated discrete-spectrum and quadrature-discretized
continuous-spectrum constructions, with numerical verification of the
algebraic and differential identities they satisfy (Lyapunov and linkage
conditions, translation/evolution equations, transfer-function symmetry,
reconstruction kernels, moment recursions, and the KdV residual itself).
"""

from . import core, evolution, soliton, spectral, suite, transfer, verify
from .core import (
    EvaluatedState,
    FieldValues,
    FiniteVessel,
    ResidualReport,
    evaluate,
    evaluate_fields,
    evolution_residuals,
    inertia,
    integrate_standard_construction,
    log_tau,
    lyapunov_residual,
    normalization_residual,
)
from .evolution import BTrajectory, Lattice, dbnt_rhs, integrate_b, make_lattice
from .exceptions import (
    ClassificationError,
    ConfigError,
    ConservationError,
    EvaluationError,
    InvalidSpecError,
    ModelBreakdownError,
    NumericalConsistencyError,
    PoleError,
    VesselError,
)
from .soliton import (
    SolitonSpec,
    build_soliton,
    one_soliton_reference,
    q_soliton,
    tau_cauchy_3,
)
from .spectral import (
    DiscreteSpectrum,
    QuadratureSpectrum,
    build_discrete_vessel,
    build_quadrature_vessel,
    fixed_vector_residual,
    gauss_legendre_spectrum,
)
from .transfer import (
    eval_S,
    ds_residual,
    gl_kernels,
    gl_residual,
    intertwining_residual,
    moment_recursion_residual,
    moments,
    q_from_K_diag,
    symmetry_residual,
)
from .verify import Grid2D, convergence_order, kdv_residual

__version__ = "0.1.0"
