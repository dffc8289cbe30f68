"""Exception types shared across the package; each carries its CLI label and exit code."""


class PathcoupleError(Exception):
    """Base class for all package errors."""
    label = "error"
    exit_code = 2


class InvalidSegmentError(PathcoupleError):
    """A path segment contains non-finite entries or has a bad shape."""


class ConfigurationError(PathcoupleError):
    """Inconsistent grids, dimensions or experiment parameters."""
    label = "configuration error"
    exit_code = 1


class InvalidCloudError(PathcoupleError):
    """Particle cloud with a bad shape, non-finite entries or mismatched grids."""


class InvalidCoefficientError(ConfigurationError):
    """A coefficient evaluation produced a non-finite value."""


class NotDiniError(ConfigurationError):
    """The integral of phi(s)/s over (0, 1] does not converge."""


class NumericalError(PathcoupleError):
    """A simulation or solve failed on a valid configuration."""
    label = "numerical failure"


class SolverFailureError(NumericalError):
    """A solve failed: a linear residual above tolerance or a non-invertible
    transform."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class LambdaExhaustedError(NumericalError):
    """No value in the lambda sweep satisfied the smallness condition."""


class OutOfDomainError(NumericalError):
    """Point outside the elliptic solver box."""


class BlowUpError(NumericalError):
    """A trajectory became non-finite during integration."""

    def __init__(self, message, step=None, particle=None):
        super().__init__(message)
        self.step = step
        self.particle = particle


class SingularDiffusionError(NumericalError):
    """The diffusion matrix was not invertible at a visited point."""


class DegenerateWeightWarning(UserWarning):
    """Girsanov log-weight left the numerically safe range."""


class UnreliableMomentWarning(UserWarning):
    """Exponential-moment estimator dominated by very few replicas."""
