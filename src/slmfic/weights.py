"""Spatial weights matrices and the log-determinant term log|I - rho*W|.

A :class:`SpatialWeights` wraps a zero-diagonal adjacency matrix A, optionally
row-normalized, together with its spectrum and the open interval of
admissible values for the spatial autoregression parameter rho;
log|I - rho*W| and its derivatives in rho are sums over the spectrum.  W is
real, so its non-real eigenvalues come in conjugate pairs and every such sum
is real: each is returned as the real part of its sum.

W is one scipy.sparse CSR array from the weights file to the fit.  Only three
places build a dense n x n matrix: the parse of a dense CSV file, which holds
n^2 numbers anyway, the spectrum of a W that is not symmetric, and that of a
band wider than n / _BAND_RATIO.

Every spectrum is computed on first read.  When it is real by construction
(A symmetric, or W = D^-1 A row-normalized from a symmetric A), it comes from
a symmetric CSR matrix S similar to W; for a two-colourable graph (a chain, a
rook lattice), from B'B, a block of S^2 of half the size (_form_spectrum),
whose eigenvalues are the squares.  They are good to eps max|w|^2, so an
eigenvalue near 0 is good to about sqrt(eps) only; every sum the model reads
is even in each +-sigma pair (log(1 - rho sigma) + log(1 + rho sigma) =
log(1 - rho^2 sigma^2)) and keeps the squares' accuracy.  Reordered by reverse
Cuthill-McKee, a contiguity graph is a narrow band matrix, whose eigenvalues
LAPACK's banded solver finds in O(n^2 bw) time; a band wider than
n / _BAND_RATIO goes to the dense solver instead.  Any other W, such as
k-nearest-neighbour weights, goes to the dense general solver, O(n^3).
Instances are immutable and safe to share across threads: two first reads
compute the same spectrum, and a pickled instance carries the spectrum it has
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from .errors import (
    DataFormatError,
    InvalidSizeError,
    IsolatedUnitError,
    RhoOutOfRangeError,
    SingularFactorizationError,
)

_CHUNK = 1 << 16  # elements of one stacked temporary, in the spectrum pass and every batch stage


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
# crossovers with 2 BLAS threads are n/17 at n = 1,000, n/20 at 2,000 and n/25 at 3,025,
# and n/16 to n/25 for the B'B of rook grids at n = 500 to 1,250.
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
    """Ascending eigenvalues of the symmetric CSR matrix S: a form of W, or the
    B'B of a two-colourable one (_form_spectrum).

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


def _form_spectrum(S) -> np.ndarray:
    """Ascending eigenvalues of the symmetric CSR matrix S.  When its graph is
    two-colourable, with classes a and b, |a| >= |b|, S = [[0, B], [B', 0]] and
    they are -sqrt(lambda), |a| - |b| zeros and sqrt(lambda), lambda those of
    M = B'B clipped at 0 (Cvetkovic, Doob & Sachs, *Spectra of Graphs*).  M is
    the b block of S^2, exactly symmetric as S is.  Any other S takes one solve."""
    n, nnz = S.shape[0], S.nnz
    # the double cover: v's copy 0 joins u's copy 1 for each entry (v, u); an odd cycle joins v's copies
    cover = scipy.sparse.csr_array((np.ones(2 * nnz), np.concatenate([S.indices + n, S.indices]),
                                    np.concatenate([S.indptr, nnz + S.indptr[1:]])), shape=(2 * n, 2 * n))
    label = connected_components(cover, connection="strong")[1]
    if np.any(label[:n] == label[n:]):
        return _symmetric_spectrum(S)
    b = label[:n] < label[n:]
    if 2 * np.count_nonzero(b) > n:
        b = ~b
    S2, m = S @ S, np.count_nonzero(b)  # the rows of b in S^2 hold columns of b only
    keep, length = np.repeat(b, np.diff(S2.indptr)), np.diff(S2.indptr)[b]
    M = scipy.sparse.csr_array((S2.data[keep], (np.cumsum(b) - 1)[S2.indices[keep]],
                                np.concatenate([[0], np.cumsum(length)])), shape=(m, m))
    lam = _symmetric_spectrum(M) if m else np.empty(0)
    sigma = np.sqrt(np.maximum(lam, 0.0))
    return np.concatenate([-sigma[::-1], np.zeros(n - 2 * m), sigma])


def _general_spectrum(W) -> np.ndarray:
    """Eigenvalues of a W that is not symmetric: real and ascending when every
    one is real, else complex, the non-real ones in conjugate pairs."""
    ev = scipy.linalg.eigvals(W.toarray())  # no sparse solver returns a full general spectrum
    return ev if ev.imag.any() else np.sort(ev.real)


def _rho_interval(spectrum: np.ndarray, row_normalized: bool) -> tuple[float, float]:
    """Open interval on which every factor 1 - rho*omega_i has a positive real part.

    Its ends come from the real parts of the eigenvalues; zero real parts
    contribute no bound.  For a real spectrum the factors themselves are
    positive there, and for a nonnegative W the upper end is 1 / (Perron root).
    For a complex spectrum the lower end can be conservative: the directed
    3-cycle, spectrum {1, -1/2 +- i sqrt(3)/2}, gets (-2, 1), although
    |I - rho*W| = 1 - rho^3 > 0 for every rho < 1.  Row-normalized matrices
    are always clipped to (-1, 1).
    """
    lo, hi = -np.inf, np.inf
    wmin, wmax = np.min(spectrum.real), np.max(spectrum.real)
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
        from which ``spectrum`` is computed; None when ``matrix`` is not
        similar to a symmetric matrix by construction.
    spectrum : (n,) ndarray
        The eigenvalues, computed once, on first read: float and ascending
        when all are real, else complex, the non-real ones in conjugate pairs.
        For a two-colourable graph, exactly +- symmetric, from B'B (see above).
    rho_interval : (float, float)
    complex_lower_end : bool
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
            return _general_spectrum(self.matrix)
        return _form_spectrum(self.symmetric_form)

    @cached_property
    def rho_interval(self) -> tuple[float, float]:
        return _rho_interval(self.spectrum, self.row_normalized)

    @cached_property
    def complex_lower_end(self) -> bool:
        """Whether non-real eigenvalues alone set the lower end of rho_interval, past
        which |I - rho*W| then stays positive; the upper end is the Perron root's."""
        w, lo = self.spectrum, self.rho_interval[0]
        x = np.min(w.real)
        return bool(lo > -np.inf and lo == 1.0 / x and w[w.real == x].imag.all())

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
        return cls(W, row_normalize, _symmetric_form(A, W, sums))

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
        and takes an array of rho too, one log-det per entry (_spectrum_sums),
        real for every W; the LU backend accumulates log|pivot| of a sparse
        LU, its oracle.
        """
        if backend == "spectrum":
            (out,) = self._spectrum_sums(rho, (0,))
            return out if np.ndim(rho) else float(out)
        if backend == "lu":
            self.require_rho(rho)
            M = scipy.sparse.eye_array(self.n, format="csc") - rho * self.matrix  # CSC
            try:
                U = scipy.sparse.linalg.splu(M).U  # L has a unit diagonal
            except RuntimeError as exc:  # SuperLU stops at an exactly zero pivot
                raise SingularFactorizationError(f"I - rho*W singular at rho={rho}") from exc
            return float(np.sum(np.log(np.abs(U.diagonal()))))
        raise ValueError(f"unknown backend {backend!r}")

    def log_det_rho_derivative(self, rho, order: int | tuple[int, ...] = 1):
        """-sum_i g_i^order, g_i = w_i / (1 - rho*w_i), per entry of an array rho: the first and
        second rho-derivative of log|I - rho*W| for order 1 and 2, half the third for order 3.

        Each sum is real for every W.  Given a tuple of orders (each 1, 2 or
        3), one such sum per order, all from one pass (_spectrum_sums), each
        the bits its order alone gives."""
        if not isinstance(order, tuple):
            return self.log_det_rho_derivative(rho, (order,))[0]
        return tuple(-s if np.ndim(rho) else float(-s) for s in self._spectrum_sums(rho, order))

    def _spectrum_sums(self, rho, orders: tuple[int, ...]) -> list:
        """Per order, at each entry of rho (any shape), sum_i log(1 - rho*w_i) for
        order 0, sum_i g_i^k, g_i = w_i / (1 - rho*w_i), for k = 1, 2, 3 (g^3 as
        g^2 * g), each the real part of its sum: in pieces of at most _CHUNK // n
        entries, at least 1, each one temporary updated in place (and a second
        for order 3), and each sum one row's, the same bits in any piece."""
        step = max(1, _CHUNK // self.n)
        if np.size(rho) > step:
            flat = np.reshape(rho, -1)
            pieces = [self._spectrum_sums(flat[i:i + step], orders)
                      for i in range(0, flat.size, step)]
            return [np.concatenate(s).reshape(np.shape(rho)) for s in zip(*pieces)]
        self.require_rho(rho)
        t = np.multiply.outer(rho, self.spectrum)  # one temporary, updated in place
        np.subtract(1.0, t, out=t)
        if 0 in orders and np.any(t.real <= 0):
            raise SingularFactorizationError(f"I - rho*W singular at rho={rho}")
        powers = set(orders) - {0}  # a log-det alone takes its log in place and no division
        sums = {0: np.sum(np.log(t, out=None if powers else t), axis=-1)} if 0 in orders else {}
        if powers:
            np.divide(self.spectrum, t, out=t)
        if 1 in powers:
            sums[1] = np.sum(t, axis=-1)
        if powers - {1}:  # g^2, in place unless g^3 = g^2 * g reads g again
            g2 = np.multiply(t, t, out=None if 3 in powers else t)
            sums[2] = np.sum(g2, axis=-1)
            if 3 in powers:
                sums[3] = np.sum(np.multiply(g2, t, out=g2), axis=-1)
        return [sums[k].real for k in orders]
