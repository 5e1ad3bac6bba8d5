"""Typed errors shared across the package."""


class StochresError(Exception):
    """Base class for all typed errors raised by this package."""


class QuadratureFailure(StochresError):
    """A numerical integral could not be evaluated reliably."""


class NonConvergence(QuadratureFailure):
    """Adaptive quadrature or root finding exhausted its budget before reaching tolerance."""


class BadBracket(StochresError):
    """Root bracketing failed: no sign change between the endpoints."""


class NonFinite(StochresError):
    """An objective evaluated to NaN or infinity inside the search bracket."""


class NotErgodic(StochresError):
    """The diffusion fails the ergodicity checks; no stationary law exists."""


class NumericBlowup(StochresError):
    """A simulated path escaped the sanity bound (bad coefficients or step size).

    ``step``, for an ensemble, is the last step of the chunk in which a path
    left the bound (None for a single path, whose message names its step).
    """

    def __init__(self, message: str, step: int | None = None) -> None:
        super().__init__(message)
        self.step = step


class DegenerateObservation(StochresError):
    """The observed statistic sits on the boundary where the estimator escapes to infinity."""


class OutOfRange(StochresError):
    """The observed value is outside the range of the forward map on the search bracket."""


class ConfigError(StochresError):
    """Invalid run configuration (CLI flags or config file)."""
