"""Exception types shared across the package."""


class VesselError(Exception):
    """Base class for all errors raised by this package.

    An error at a point (x, t) carries it as ``x`` and ``t`` and ends its
    message in ``[at x=..., t=...]``; both are None otherwise.
    """

    def __init__(self, message, x=None, t=None):
        if x is not None or t is not None:
            message = f"{message} [at x={x!r}, t={t!r}]"
        super().__init__(message)
        self.x = x
        self.t = t


class InvalidSpecError(VesselError, ValueError):
    """A construction spec violates its invariants (bad wavenumbers, zero amplitudes, ...)."""


class EvaluationError(VesselError):
    """Operator evaluation failed at a point (singular Gram operator, overflow)."""


class NumericalConsistencyError(VesselError):
    """A quantity that must be real/Hermitian came back with residue above tolerance."""


class ClassificationError(VesselError):
    """Inertia classification rejected a (near-)singular Hermitian operator."""


class PoleError(VesselError):
    """Transfer-function evaluation requested at (or too close to) a pole."""

    def __init__(self, lam, nearest_pole, distance):
        super().__init__(
            f"lambda={lam!r} is within {distance:.3e} of the pole {nearest_pole!r}"
        )
        self.lam = lam
        self.nearest_pole = nearest_pole
        self.distance = distance


class ConservationError(VesselError):
    """Coefficient-evolution step rejected: conservation residual above tolerance."""

    def __init__(self, t, residual, tol):
        super().__init__(
            f"conservation residual {residual:.3e} exceeds {tol:.3e} at t={t!r}"
        )
        self.t = t
        self.residual = residual


class ModelBreakdownError(VesselError):
    """Coefficient evolution produced a negative squared amplitude."""

    def __init__(self, t, value):
        super().__init__(f"squared coefficient went negative ({value:.3e}) at t={t!r}")
        self.t = t
        self.value = value


class ConfigError(VesselError):
    """CLI configuration is malformed; message carries the offending field path."""
