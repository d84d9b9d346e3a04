"""Spatial weights matrices and the log-determinant term log|I - rho*W|.

A :class:`SpatialWeights` wraps a zero-diagonal adjacency matrix A, optionally
row-normalized, together with its (real) spectrum and the open interval of
admissible values for the spatial autoregression parameter rho;
log|I - rho*W| and its derivatives in rho are sums over the spectrum.

W is one scipy.sparse CSR array from the weights file to the fit.  Only three
places build a dense n x n matrix: the parse of a dense CSV file, which holds
n^2 numbers anyway, the spectrum of a W that is not symmetric, and that of a
band wider than n / _BAND_RATIO.

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
import scipy.sparse.linalg
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


def validate_adjacency(A) -> scipy.sparse.csr_array:
    """Check the adjacency-matrix invariants and return a float CSR copy.

    A is dense or any scipy.sparse matrix.  Requires a square matrix with n >= 2,
    finite nonnegative stored entries and an exactly zero diagonal: a bad shape
    raises InvalidSizeError, a bad entry DataFormatError.  The copy sums
    duplicate entries and drops explicit zeros.
    """
    shape = np.shape(A)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidSizeError(f"adjacency must be square, got shape {shape}")
    if shape[0] < 2:
        raise InvalidSizeError(f"need at least 2 spatial units, got {shape[0]}")
    A = scipy.sparse.csr_array(A, dtype=float, copy=True)
    A.sum_duplicates()  # canonical: column indices sorted within each row
    A.eliminate_zeros()
    bad = np.flatnonzero(~np.isfinite(A.data))
    if bad.size:
        raise DataFormatError(f"non-finite adjacency entry {_where(A, bad[0])}")
    bad = np.flatnonzero(A.data < 0)
    if bad.size:
        raise DataFormatError(f"negative adjacency entry {_where(A, bad[0])}")
    if np.any(A.diagonal() != 0):
        bad = int(np.flatnonzero(A.diagonal())[0])
        raise DataFormatError(f"diagonal must be zero, unit {bad} has a self-loop")
    return A


def _where(A: scipy.sparse.csr_array, k: int) -> str:
    """The k-th stored entry of the canonical CSR A, with its row and column."""
    return f"{A.data[k]} at row {A.tocoo().row[k]}, column {A.indices[k]}"


def build_chain_lag1(n: int) -> scipy.sparse.csr_array:
    """Binary adjacency of a chain graph: unit i neighbors i-1 and i+1."""
    if n < 2:
        raise InvalidSizeError(f"chain needs n >= 2, got {n}")
    return scipy.sparse.diags_array([np.ones(n - 1)] * 2, offsets=[-1, 1], format="csr")


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


def _symmetric_form(A, W, row_sums: np.ndarray | None):
    """A symmetric CSR matrix with the spectrum of W, or None if there is none by construction.

    That is D^-1/2 A D^-1/2 when W = D^-1 A (row_sums = diag D) and A is
    symmetric, and W itself when W is symmetric, both taken within np.allclose
    and symmetrized as 0.5 (S + S^T), so that no solver depends on the triangle
    it reads.  A and W are canonical CSR arrays with one pattern; O(nnz) work.
    """
    if A.nnz == 0:  # the zero matrix is its own symmetric form
        return A
    rows, cols = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)), A.indices
    if row_sums is not None and _allclose_pairs(A.data, A[cols, rows]):  # A[j, i] at (i, j)
        s = 1.0 / np.sqrt(row_sums)
        S = scipy.sparse.csr_array(((s[rows] * A.data) * s[cols], cols, A.indptr), shape=A.shape)
    elif _allclose_pairs(W.data, W[cols, rows]):
        S = W
    else:
        return None
    return 0.5 * (S + S.T)


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
    if _BAND_RATIO * bw > n:  # a wide band does not pay; the dense solver takes S dense
        return np.sort(scipy.linalg.eigvalsh(S.toarray()))
    lower = offset >= 0
    band = np.zeros((bw + 1, n))
    band[offset[lower], j[lower]] = S.data[lower]
    return np.sort(scipy.linalg.eig_banded(band, lower=True, eigvals_only=True, check_finite=False))


def _real_spectrum(W) -> np.ndarray:
    """Eigenvalues of a W that is not symmetric; ComplexSpectrumError if they are not real."""
    ev = scipy.linalg.eigvals(W.toarray())  # no sparse solver returns a full general spectrum
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
    matrix : (n, n) scipy.sparse.csr_array
        The weights actually used in the model (normalized or raw), read-only,
        with sorted indices and no explicit zeros; the adjacency they were
        built from is not kept.  Only the three places named in the module
        docstring make it dense.
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

    matrix: scipy.sparse.csr_array
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
    def from_adjacency(cls, A, row_normalize: bool = False) -> "SpatialWeights":
        """Weights from a dense or scipy.sparse adjacency matrix (see validate_adjacency)."""
        A = validate_adjacency(A)  # a private copy
        W, sums = A, None
        if row_normalize:
            sums = A.sum(axis=1)
            zero = np.flatnonzero(sums == 0)
            if zero.size:
                raise IsolatedUnitError(int(zero[0]))
            W = scipy.sparse.csr_array((A.data / np.repeat(sums, np.diff(A.indptr)), A.indices,
                                        A.indptr), shape=A.shape)
        for part in (W.data, W.indices, W.indptr):
            part.setflags(write=False)
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
        backend accumulates log|pivot| of a sparse LU and is kept as its oracle.
        """
        self.require_rho(rho)
        if backend == "spectrum":
            factors = np.multiply.outer(rho, self.spectrum)  # one temporary, updated in place
            np.subtract(1.0, factors, out=factors)
            if np.any(factors <= 0):
                raise SingularFactorizationError(f"I - rho*W singular at rho={rho}")
            out = np.sum(np.log(factors, out=factors), axis=-1)
            return out if np.ndim(rho) else float(out)
        if backend == "lu":
            M = scipy.sparse.eye_array(self.n, format="csc") - rho * self.matrix  # CSC
            try:
                U = scipy.sparse.linalg.splu(M).U  # L has a unit diagonal
            except RuntimeError as exc:  # SuperLU stops at an exactly zero pivot
                raise SingularFactorizationError(f"I - rho*W singular at rho={rho}") from exc
            return float(np.sum(np.log(np.abs(U.diagonal()))))
        raise ValueError(f"unknown backend {backend!r}")

    def log_det_rho_derivative(self, rho, order: int = 1):
        """-sum_i g_i^order, g_i = w_i / (1 - rho*w_i), per entry of an array rho: the first and
        second rho-derivative of log|I - rho*W| for order 1 and 2, half the third for order 3."""
        self.require_rho(rho)
        g = np.multiply.outer(rho, self.spectrum)  # one temporary, updated in place
        np.subtract(1.0, g, out=g)
        np.divide(self.spectrum, g, out=g)
        g **= order
        return -np.sum(g, axis=-1) if np.ndim(rho) else float(-np.sum(g))
