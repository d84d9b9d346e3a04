"""Spatial weights matrices and the log-determinant term log|I - rho*W|.

A :class:`SpatialWeights` wraps a zero-diagonal adjacency matrix, optionally
row-normalized, together with its (real) spectrum and the open interval of
admissible values for the spatial autoregression parameter rho.  The spectrum
is always computed at construction, so instances are immutable and safe to
share across threads, and log|I - rho*W| and its derivatives in rho are sums
over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    ComplexSpectrumError,
    DataFormatError,
    InvalidSizeError,
    IsolatedUnitError,
    RhoOutOfRangeError,
    SingularFactorizationError,
)

_IMAG_TOL = 1e-8


def validate_adjacency(A: np.ndarray) -> np.ndarray:
    """Check the adjacency-matrix invariants and return a float copy.

    Requires a square matrix with n >= 2, finite nonnegative entries and an
    exactly zero diagonal.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidSizeError(f"adjacency must be square, got shape {A.shape}")
    if A.shape[0] < 2:
        raise InvalidSizeError(f"need at least 2 spatial units, got {A.shape[0]}")
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        i, j = bad[0]
        raise DataFormatError(f"non-finite adjacency entry {A[i, j]} at row {i}, column {j}")
    if np.any(A < 0):
        raise InvalidSizeError("adjacency entries must be nonnegative")
    if np.any(np.diag(A) != 0):
        bad = int(np.flatnonzero(np.diag(A))[0])
        raise InvalidSizeError(f"diagonal must be zero, unit {bad} has a self-loop")
    return A.copy()


def build_chain_lag1(n: int) -> np.ndarray:
    """Binary adjacency of a chain graph: unit i neighbors i-1 and i+1."""
    if n < 2:
        raise InvalidSizeError(f"chain needs n >= 2, got {n}")
    A = np.zeros((n, n))
    idx = np.arange(n - 1)
    A[idx, idx + 1] = 1.0
    A[idx + 1, idx] = 1.0
    return A


def _real_spectrum(W: np.ndarray, A: np.ndarray, row_normalized: bool) -> np.ndarray:
    """Eigenvalues of W, guaranteed real when the adjacency A is symmetric.

    A row-normalized W = D^-1 A with symmetric A is similar to the symmetric
    matrix D^-1/2 A D^-1/2, so its spectrum is computed from that form and is
    real by construction.
    """
    if row_normalized and np.allclose(A, A.T):
        d = A.sum(axis=1)
        s = 1.0 / np.sqrt(d)
        sym = (s[:, None] * A) * s[None, :]
        return np.sort(scipy.linalg.eigvalsh(sym))
    if np.allclose(W, W.T):
        return np.sort(scipy.linalg.eigvalsh(W))
    ev = scipy.linalg.eigvals(W)
    if np.max(np.abs(ev.imag)) > _IMAG_TOL:
        raise ComplexSpectrumError(
            f"weights matrix has complex eigenvalues "
            f"(max imaginary part {np.max(np.abs(ev.imag)):.3e})"
        )
    return np.sort(ev.real)


def _rho_interval(spectrum: np.ndarray, row_normalized: bool) -> tuple[float, float]:
    """Open interval on which 1 - rho*omega_i > 0 for every eigenvalue.

    Zero eigenvalues contribute no bound.  Row-normalized matrices are always
    clipped to (-1, 1).
    """
    lo, hi = -np.inf, np.inf
    wmin, wmax = spectrum[0], spectrum[-1]
    if wmin < 0:
        lo = 1.0 / wmin
    if wmax > 0:
        hi = 1.0 / wmax
    if row_normalized:
        lo, hi = max(lo, -1.0), min(hi, 1.0)
    return lo, hi


@dataclass(frozen=True)
class SpatialWeights:
    """Validated spatial weights with cached spectrum and admissible rho range.

    Attributes
    ----------
    matrix : (n, n) ndarray
        The weights actually used in the model (normalized or raw); the
        adjacency they were built from is not kept.
    row_normalized : bool
    spectrum : (n,) ndarray
        Real eigenvalues sorted ascending.
    rho_interval : (float, float)
    """

    matrix: np.ndarray
    row_normalized: bool
    spectrum: np.ndarray
    rho_interval: tuple[float, float] = field(default=(-np.inf, np.inf))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_adjacency(cls, A: np.ndarray, row_normalize: bool = False) -> "SpatialWeights":
        A = validate_adjacency(A)  # a private copy
        W = A
        if row_normalize:
            sums = A.sum(axis=1)
            zero = np.flatnonzero(sums == 0)
            if zero.size:
                raise IsolatedUnitError(int(zero[0]))
            W = A / sums[:, None]
        spectrum = _real_spectrum(W, A, row_normalize)
        interval = _rho_interval(spectrum, row_normalize)
        W.setflags(write=False)
        return cls(W, row_normalize, spectrum, interval)

    def contains_rho(self, rho) -> bool:
        """Whether rho, or every entry of an array of rho, lies in the admissible interval."""
        lo, hi = self.rho_interval
        return bool(np.all((lo < rho) & (rho < hi)))

    def require_rho(self, rho) -> None:
        if not self.contains_rho(rho):
            lo, hi = self.rho_interval
            raise RhoOutOfRangeError(f"rho={rho} outside admissible interval ({lo}, {hi})")

    def log_det_factor(self, rho, backend: str = "spectrum"):
        """log|I_n - rho*W| via the eigenvalue product or an LU factorization.

        The spectrum backend uses the identity |I - rho*W| = prod(1 - rho*w_i)
        and takes an array of rho too, giving one log-det per entry; the LU
        backend accumulates log|pivot| and is kept as its oracle.
        """
        self.require_rho(rho)
        if backend == "spectrum":
            factors = 1.0 - np.multiply.outer(rho, self.spectrum)
            if np.any(factors <= 0):
                raise SingularFactorizationError(f"I - rho*W singular at rho={rho}")
            out = np.sum(np.log(factors), axis=-1)
            return out if np.ndim(rho) else float(out)
        if backend == "lu":
            M = np.eye(self.n) - rho * self.matrix
            _, _, U = scipy.linalg.lu(M)
            piv = np.abs(np.diag(U))
            if np.any(piv == 0):
                raise SingularFactorizationError(f"I - rho*W singular at rho={rho}")
            return float(np.sum(np.log(piv)))
        raise ValueError(f"unknown backend {backend!r}")

    def log_det_rho_derivative(self, rho, order: int = 1):
        """The first (order 1) or second (order 2) derivative of log|I - rho*W| in
        rho, -sum_i g_i^order with g_i = w_i / (1 - rho*w_i); one per entry of an array rho."""
        self.require_rho(rho)
        g = self.spectrum / (1.0 - np.multiply.outer(rho, self.spectrum))
        return -np.sum(g**order, axis=-1) if np.ndim(rho) else float(-np.sum(g**order))


def row_normalize(A: np.ndarray) -> SpatialWeights:
    """Row-normalize an adjacency matrix into stochastic spatial weights."""
    return SpatialWeights.from_adjacency(A, row_normalize=True)
