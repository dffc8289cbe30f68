"""Exception types shared across the package."""


class PathcoupleError(Exception):
    """Base class for all package errors."""


class InvalidSegmentError(PathcoupleError):
    """A path segment contains non-finite entries or has a bad shape."""


class ConfigurationError(PathcoupleError):
    """Inconsistent grids, dimensions or experiment parameters."""


class InvalidCloudError(PathcoupleError):
    """Particle cloud with a bad shape, non-finite entries or mismatched grids."""


class InvalidCoefficientError(PathcoupleError):
    """A coefficient evaluation produced a non-finite value."""


class NotDiniError(PathcoupleError):
    """The integral of phi(s)/s over (0, 1] does not converge."""


class SolverFailureError(PathcoupleError):
    """A solve failed: a linear residual above tolerance, a non-invertible
    transform, or a fixed-point iteration that did not converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class LambdaExhaustedError(PathcoupleError):
    """No value in the lambda sweep satisfied the smallness condition."""


class OutOfDomainError(PathcoupleError):
    """Point outside the elliptic solver box."""


class BlowUpError(PathcoupleError):
    """A trajectory became non-finite during integration."""

    def __init__(self, message, step=None, particle=None):
        super().__init__(message)
        self.step = step
        self.particle = particle


class SingularDiffusionError(PathcoupleError):
    """The diffusion matrix was not invertible at a visited point."""


class DegenerateWeightWarning(UserWarning):
    """Girsanov log-weight left the numerically safe range."""


class UnreliableMomentWarning(UserWarning):
    """Exponential-moment estimator dominated by very few replicas."""
