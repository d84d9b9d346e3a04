"""Spatial weights matrices and the log-determinant term log|I - rho*W|.

A :class:`SpatialWeights` wraps a zero-diagonal adjacency matrix A, optionally
row-normalized, together with its (real) spectrum and the open interval of
admissible values for the spatial autoregression parameter rho;
log|I - rho*W| and its derivatives in rho are sums over the spectrum.

When the spectrum is real by construction (A symmetric, or W = D^-1 A
row-normalized from a symmetric A), it is computed on first read from a symmetric
CSR matrix similar to W.  Reordered by reverse Cuthill-McKee, a contiguity
graph is a narrow band matrix, whose eigenvalues LAPACK's banded solver finds
in O(n^2 bw) time; a band wider than n / _BAND_RATIO goes to the dense solver
instead.  Any other W gets its spectrum at construction, so a complex
spectrum is an error there.  Instances are immutable and safe to share across
threads: two first reads compute the same spectrum, and a pickled instance
carries the spectrum it has read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

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


_ALLCLOSE_RTOL, _ALLCLOSE_ATOL = 1e-5, 1e-8  # the defaults of np.allclose
# The banded solver wins while the RCM bandwidth is at most about n/25: measured
# crossovers with 2 BLAS threads are n/17 at n = 1,000, n/20 at 2,000 and n/25 at 3,025.
_BAND_RATIO = 25


def _allclose_pairs(a: np.ndarray, b: np.ndarray) -> bool:
    """np.allclose(M, M.T), given a = M[i, j] and b = M[j, i] at positions (i, j)
    that include every nonzero of M.

    The other positions need no test: M and M.T are both 0 there, or M is 0
    and the test at the transposed position, |M[j, i]| <= atol, implies
    theirs.
    """
    return bool(np.all(np.abs(a - b) <= _ALLCLOSE_ATOL + _ALLCLOSE_RTOL * np.abs(b)))


def _symmetric_form(A: np.ndarray, W: np.ndarray, row_sums: np.ndarray | None):
    """A symmetric CSR matrix with the spectrum of W, or None if there is none by construction.

    That is D^-1/2 A D^-1/2 when W = D^-1 A (row_sums = diag D) and A is
    symmetric, and W itself when W is symmetric, both taken within np.allclose
    and symmetrized as 0.5 (S + S^T), so that no solver depends on the triangle
    it reads.  Built in O(nnz) from the nonzeros of A.
    """
    n = A.shape[0]
    flat = np.flatnonzero(A)
    rows, cols = np.divmod(flat, n)
    flat_t = cols * n + rows  # the transposed positions
    a, b = A.ravel()[flat], A.ravel()[flat_t]
    one_way = b == 0
    if row_sums is not None and _allclose_pairs(a, b):
        s = 1.0 / np.sqrt(row_sums)
        s_i, s_j = s[rows], s[cols]
        values = 0.5 * ((s_i * a) * s_j + (s_j * b) * s_i)
    else:
        if row_sums is not None:
            a, b = W.ravel()[flat], W.ravel()[flat_t]
        if not _allclose_pairs(a, b):
            return None
        values = 0.5 * (a + b)
    if one_way.any():  # a pattern that is not symmetric: add the transposed entries
        rows, cols = np.concatenate((rows, cols[one_way])), np.concatenate((cols, rows[one_way]))
        values = np.concatenate((values, values[one_way]))
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return scipy.sparse.csr_array((values, cols.astype(np.int32), indptr), shape=(n, n))


def _symmetric_spectrum(S) -> np.ndarray:
    """Ascending eigenvalues of the symmetric CSR matrix S.

    S is reordered by reverse Cuthill-McKee and handed to the banded solver
    as its lower band; a bandwidth above n / _BAND_RATIO goes to the dense
    solver, in the original order.
    """
    n = S.shape[0]
    pos = np.empty(n, dtype=np.intp)
    pos[reverse_cuthill_mckee(S, symmetric_mode=True)] = np.arange(n)
    i = pos[np.repeat(np.arange(n), np.diff(S.indptr))]
    j = pos[S.indices]
    offset = i - j
    bw = int(np.max(offset, initial=0))
    if _BAND_RATIO * bw > n:
        return np.sort(scipy.linalg.eigvalsh(S.toarray()))
    lower = offset >= 0
    band = np.zeros((bw + 1, n))
    band[offset[lower], j[lower]] = S.data[lower]
    return np.sort(scipy.linalg.eig_banded(band, lower=True, eigvals_only=True, check_finite=False))


def _real_spectrum(W: np.ndarray) -> np.ndarray:
    """Eigenvalues of a W that is not symmetric; ComplexSpectrumError if they are not real."""
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
    """Validated spatial weights; the spectrum and admissible rho range are computed on first read.

    Attributes
    ----------
    matrix : (n, n) ndarray
        The weights actually used in the model (normalized or raw); the
        adjacency they were built from is not kept.
    row_normalized : bool
    symmetric_form : (n, n) scipy.sparse.csr_array or None
        A symmetric matrix similar to ``matrix`` (D^-1/2 A D^-1/2 for
        row-normalized weights from a symmetric A, else ``matrix`` itself),
        from which ``spectrum`` is computed on first read; None when
        ``matrix`` is not symmetric, and then ``from_adjacency`` reads the
        spectrum at construction.
    spectrum : (n,) ndarray
        Real eigenvalues sorted ascending, computed once.
    rho_interval : (float, float)
    """

    matrix: np.ndarray
    row_normalized: bool
    symmetric_form: scipy.sparse.csr_array | None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> np.ndarray:
        if self.symmetric_form is None:
            return _real_spectrum(self.matrix)
        return _symmetric_spectrum(self.symmetric_form)

    @cached_property
    def rho_interval(self) -> tuple[float, float]:
        return _rho_interval(self.spectrum, self.row_normalized)

    @classmethod
    def from_adjacency(cls, A: np.ndarray, row_normalize: bool = False) -> "SpatialWeights":
        A = validate_adjacency(A)  # a private copy
        W, sums = A, None
        if row_normalize:
            sums = A.sum(axis=1)
            zero = np.flatnonzero(sums == 0)
            if zero.size:
                raise IsolatedUnitError(int(zero[0]))
            W = A / sums[:, None]
        W.setflags(write=False)
        weights = cls(W, row_normalize, _symmetric_form(A, W, sums))
        if weights.symmetric_form is None:
            _ = weights.spectrum  # not real by construction: a complex spectrum fails here
        return weights

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
