"""Exception types shared across the package.  Every concrete error derives
from exactly one of InputError and NumericalError; any other exception is a bug."""


class SlmficError(Exception):
    """Base class for all package-specific errors."""


class InputError(SlmficError, ValueError):
    """Bad input from outside the program: the CLI exits 1 and a study stops."""


class NumericalError(SlmficError):
    """A computation failed on valid input: the CLI exits 2 and a replication is skipped."""


class InvalidSizeError(InputError):
    """Adjacency matrix too small or mis-shaped."""


class IsolatedUnitError(InputError):
    """A spatial unit has no neighbors, so its row cannot be normalized."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"unit {index} has no neighbors (zero row)")


class RhoOutOfRangeError(InputError):
    """Spatial autoregression parameter outside the admissible interval."""


class SingularFactorizationError(NumericalError, ValueError):
    """I - rho*W is numerically singular."""


class RankError(InputError):
    """Design matrix (or a submodel slice of it) is rank deficient."""


class DegenerateVarianceError(NumericalError, ValueError):
    """Profiled residual variance collapsed to zero."""


class ConvergenceError(NumericalError, RuntimeError):
    """The rho search did not converge, or ended on an end of the interval that
    complex eigenvalues set; carries its last rho."""

    def __init__(self, message, best_rho=None):
        self.best_rho = best_rho
        super().__init__(message)


class SingularInformationError(NumericalError, ValueError):
    """Estimated Fisher information is numerically singular."""


class StencilError(NumericalError, ValueError):
    """A finite-difference stencil hit a non-finite function value."""


class FocusSpecError(InputError):
    """Focus specification inconsistent with the data or missing fields."""


class SweepTooLargeError(InputError):
    """Exhaustive submodel sweep requested for too many covariates."""


class BandwidthError(NumericalError, ValueError):
    """Kernel bandwidth so small that the weights underflow."""


class ZeroVarianceError(InputError):
    """Input vector is constant; autocorrelation statistic undefined."""


class DataFormatError(InputError):
    """Input data or file failed validation; message names the offending location."""


class ConfigError(InputError):
    """Simulation configuration is inconsistent."""


class ReplicationFailureError(NumericalError, RuntimeError):
    """More Monte-Carlo replications failed than the study tolerates."""
