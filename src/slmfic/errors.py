"""Exception types shared across the package."""


class SlmficError(Exception):
    """Base class for all package-specific errors."""


class InvalidSizeError(SlmficError, ValueError):
    """Adjacency matrix too small or mis-shaped."""


class IsolatedUnitError(SlmficError, ValueError):
    """A spatial unit has no neighbors, so its row cannot be normalized."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"unit {index} has no neighbors (zero row)")


class ComplexSpectrumError(SlmficError, ValueError):
    """Eigenvalues of the weights matrix have non-negligible imaginary parts."""


class RhoOutOfRangeError(SlmficError, ValueError):
    """Spatial autoregression parameter outside the admissible interval."""


class SingularFactorizationError(SlmficError, ValueError):
    """I - rho*W is numerically singular."""


class RankError(SlmficError, ValueError):
    """Design matrix (or a submodel slice of it) is rank deficient."""


class DegenerateVarianceError(SlmficError, ValueError):
    """Profiled residual variance collapsed to zero."""


class ConvergenceError(SlmficError, RuntimeError):
    """Scalar optimizer failed to converge; carries the best iterate found."""

    def __init__(self, message, best_rho=None):
        self.best_rho = best_rho
        super().__init__(message)


class SingularInformationError(SlmficError, ValueError):
    """Estimated Fisher information is numerically singular."""


class StencilError(SlmficError, ValueError):
    """A finite-difference stencil hit a non-finite function value."""


class FocusSpecError(SlmficError, ValueError):
    """Focus specification inconsistent with the data or missing fields."""


class SweepTooLargeError(SlmficError, ValueError):
    """Exhaustive submodel sweep requested for too many covariates."""


class BandwidthError(SlmficError, ValueError):
    """Kernel bandwidth so small that all weights underflow."""


class ZeroVarianceError(SlmficError, ValueError):
    """Input vector is constant; autocorrelation statistic undefined."""


class DataFormatError(SlmficError, ValueError):
    """Input data or file failed validation; message names the offending location."""


class ConfigError(SlmficError, ValueError):
    """Simulation configuration is inconsistent."""


class ReplicationFailureError(SlmficError, RuntimeError):
    """More Monte-Carlo replications failed than the study tolerates."""
