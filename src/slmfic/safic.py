"""Spatially averaged FIC: weighted average risk of the estimated linear predictor.

The pointwise AMSE of the linear predictor at unit i decomposes into a
misspecification (deviance) term, a shared rho term, and an overfitting
penalty.  Averaging over units with weights psi turns the sum into two traces
against the empirical second-moment matrix K of the omega vectors; the shared
rho term is constant across submodels and dropped from the score.  With a
factor F F' = K (_k_factor), the bias r'K r is |F'r|^2 and the penalty
tr(M_S^{-1} K_SS) is sum(F_S * M_S^{-1} F_S): FIC's risk kernel,
fic._risk_terms, solving against the subset's block M_S of the beta Schur
complement, which is certified once for every subset.

All (rho, beta) information blocks are taken from the wide-model estimate with
the sigma^2 coordinate removed by deletion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from . import weights
from .errors import BandwidthError, ConfigError, DataFormatError
from .fic import FicRow
from .slm import Dataset, FisherInfo, _certify
from .submodels import SubmodelId

_BIN_BITS = 14  # a counting pass of median_bandwidth has 2^_BIN_BITS bins


@dataclass(frozen=True)
class PsiWeights:
    """Finite nonnegative unit-sum weights over the spatial units."""

    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float).reshape(-1)
        if not np.all(np.isfinite(psi)) or np.any(psi < 0):
            raise ConfigError("weights must be finite and nonnegative")
        if abs(psi.sum() - 1.0) > 1e-12:
            raise ConfigError(f"weights must sum to 1, got {psi.sum()!r}")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)


def psi_uniform(n: int) -> PsiWeights:
    if n < 1:
        raise ValueError("need at least one unit")
    return PsiWeights(np.full(n, 1.0 / n))


def check_kernel(z0, h: float | None, p: int, where: str = "") -> None:
    """Raise ConfigError, its message led by where, unless the bandwidth h is
    finite and positive (None, the median-distance default, needs p > 0) and
    the center z0, if given, holds p finite numbers."""
    if h is None and p == 0:
        raise ConfigError(f"{where}the median-distance bandwidth is 0 for p=0; supply a bandwidth")
    if h is not None and not (np.isfinite(h) and h > 0):
        raise ConfigError(f"{where}bandwidth must be finite and positive, got {h}")
    if z0 is not None and len(z0) != p:
        raise ConfigError(f"{where}kernel center has {len(z0)} entries, X has {p} columns")
    if z0 is not None and not np.all(np.isfinite(z0)):
        raise ConfigError(f"{where}kernel center must be finite, got {np.asarray(z0).tolist()}")


def psi_kernel(X: np.ndarray, z0: np.ndarray, h: float) -> PsiWeights:
    """Gaussian-kernel weights centered at covariate level z0, renormalized to sum 1."""
    X = np.asarray(X, dtype=float)
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    p = X.shape[1]
    check_kernel(z0, h, p)
    d2 = np.sum((X - z0[None, :]) ** 2, axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = (2.0 * np.pi) ** (-p / 2.0) * np.exp(-0.5 * d2 / (h * h))
    total = raw.sum()
    if not np.isfinite(total) or total < 1e-300:  # h*h underflows to 0: 0/0 is NaN
        raise BandwidthError(f"bandwidth h={h} too small: kernel weights underflow")
    return PsiWeights(raw / total)


def median_bandwidth(X: np.ndarray) -> float:
    """Median pairwise Euclidean distance among the rows of X: np.median(pdist(X))
    bit for bit, in O(n^2) time and O(weights._CHUNK + 2^_BIN_BITS + n) memory.

    Nonnegative floats order as their bit patterns do.  The bracket of patterns
    [lo, lo + span) holds order statistic (m - 1) // 2 of the m distances, with
    `below` distances under it and n_in in it.  While n_in > weights._CHUNK, a
    pass counts the distances in 2^_BIN_BITS bins over the bracket (the first
    over the top 8 binades under a bound, bin 0 taking all below) and the
    bracket becomes the statistic's bin.  A last pass keeps the bracket's distances;
    a bracket of one pattern needs only its count."""
    X = np.asarray(X, dtype=float)
    if len(X) < 2:
        raise DataFormatError(f"the median-distance bandwidth needs at least 2 rows, got {len(X)}")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise DataFormatError(f"row {bad[0]} of X has a non-finite entry")
    m, nb = len(X) * (len(X) - 1) // 2, 1 << _BIN_BITS
    ks = np.unique([(m - 1) // 2, m // 2])
    # twice the largest distance to the mean bounds them all (the triangle
    # inequality), widened past rounding and underflow; 2^52 patterns a binade
    r = 2.0 * np.sqrt(np.max(np.sum((X - X.mean(axis=0)) ** 2, axis=1))) * (1 + 2.0 ** -20) + 1e-150
    top = int(np.float64(r).view(np.int64)) + 1
    lo, span, below, n_in = 0, top, 0, m
    while n_in > weights._CHUNK and span > 1:
        w0 = max(lo, top - (1 << 55)) if lo + span == top else lo
        shift = max(0, (lo + span - w0 - 1).bit_length() - _BIN_BITS)
        counts = np.zeros(nb + 2, np.intp)  # bin 0 under w0, nb + 1 above the bins
        for d in _pair_blocks(X):
            i = d.view(np.int64)  # in place: a new array per step costs as much as the step
            i -= w0 - (1 << shift)
            i >>= shift
            counts += np.bincount(np.clip(i, 0, nb + 1, out=i), minlength=nb + 2)
        cum = np.cumsum(counts)
        j = int(np.searchsorted(cum, ks[0], side="right"))
        if j:  # else the bracket's part under w0
            lo, span, below = w0 + ((j - 1) << shift), 1 << shift, cum[j - 1]
        else:
            span = w0 - lo
        n_in = cum[j] - below
    a, b = np.array([lo, lo + span - 1]).view(np.float64)
    kept, above, rank = [], np.inf, ks - below
    for d in _pair_blocks(X):
        if n_in <= weights._CHUNK:
            kept.append(d[(d >= a) & (d <= b)])
        if rank[-1] == n_in:  # the upper statistic is the least distance above
            above = d[d > b].min(initial=above)
    if n_in <= weights._CHUNK:
        vals = np.partition(np.concatenate(kept + [[above]]), rank)[rank]
    else:
        vals = np.where(rank < n_in, a, above)
    h = float(np.mean(vals))  # as np.median takes the mean of the one or two
    if h <= 0:
        raise BandwidthError("median pairwise distance is zero; supply a bandwidth")
    return h


def _pair_blocks(X: np.ndarray):
    """The distances of the row pairs i < j of X, flat, from cdist (and pdist
    within a block), bit for bit pdist's; a block of rows holds at most
    weights._CHUNK pairs, or is one row."""
    i0, n = 0, len(X)
    while i0 < n:
        i1 = i0 + max(1, min(n - i0, weights._CHUNK // (n - i0)))
        yield pdist(X[i0:i1])
        yield cdist(X[i0:i1], X[i1:]).ravel()
        i0 = i1


@dataclass(frozen=True)
class RhoBetaBlocks:
    """(rho, beta) partition of the information and the beta Schur complement
    Q_inv = I_bb - I_br I_rb / I_rr."""

    I_rr: float
    I_br: np.ndarray  # p x 1
    Q_inv: np.ndarray  # p x p


def rho_beta_blocks(info_full: FisherInfo) -> RhoBetaBlocks:
    """Drop the sigma^2 row/column and certify the beta Schur complement."""
    I_rr, I_br, schur = _rho_beta_blocks(info_full.matrix[None])
    _certify(schur[0], "beta Schur complement of the wide information")
    return RhoBetaBlocks(I_rr=float(I_rr[0]), I_br=I_br[0], Q_inv=schur[0])


def _rho_beta_blocks(I: np.ndarray):
    """I_rr (R,), I_br (R, p, 1) and the uncertified beta Schur complement
    Q_inv (R, p, p) of a stack of informations I (R, p + 2, p + 2)."""
    I_rr, I_br = I[:, 0, 0], I[:, 2:, 0:1]
    return I_rr, I_br, I[:, 2:, 2:] - (I_br @ I[:, 0:1, 2:]) / I_rr[:, None, None]


def g_matrix(blocks: RhoBetaBlocks, S: SubmodelId) -> np.ndarray:
    """Submodel projection G_S = Pi_S' M_S^{-1} Pi_S Q^{-1} with M_S = Q^{-1}[S, S];
    zero for the narrow model.

    Not used in the sweep: its risk kernel (fic._risk_terms) reads M_S without
    forming G_S.  This is the form pointwise_risk and the tests check it against.
    """
    G = np.zeros_like(blocks.Q_inv)
    sel = list(S.indices())
    if sel:
        M = blocks.Q_inv[np.ix_(sel, sel)]
        _certify(M, f"projected inverse-Q block for {S.label()}")
        G[sel] = np.linalg.solve(M, blocks.Q_inv[sel])
    return G


def _k_factor(I_rr: np.ndarray, I_br: np.ndarray, WY: np.ndarray, X: np.ndarray,
              psi: np.ndarray) -> np.ndarray:
    """A factor F, F F' = K = sum_i psi_i omega_i omega_i', of the second-moment
    matrices of the omega vectors of R datasets: the transposed R of one stacked
    R-only QR of psi^{1/2} Omega.  I_rr (R,), I_br (R, p, 1), WY (R, n), X (R, n, p)
    and psi (n,), shared, or (R, n) give F (R, p, min(n, p))."""
    Omega = WY[:, :, None] * (I_br[:, :, 0] / I_rr[:, None])[:, None, :] - X
    return np.swapaxes(np.linalg.qr(np.sqrt(psi)[..., :, None] * Omega, mode="r"), 1, 2)


def pointwise_risk(i: int, S: SubmodelId, delta: np.ndarray, blocks: RhoBetaBlocks,
                   data: Dataset) -> float:
    """AMSE of the estimated linear predictor at unit i under submodel S: the
    bias ((I - G_S)' w)' delta squared, the rho term (WY)_i^2 / I_rr and the
    penalty (G_S' w)' Q (G_S' w), Q the symmetrized inverse of blocks.Q_inv and
    w = omega_i = I_br * I_rr^{-1} * (WY)_i - x_i the sensitivity vector of unit i."""
    if not 0 <= i < data.n:
        raise ValueError(f"unit index {i} out of range for n={data.n}")
    Q = np.linalg.inv(blocks.Q_inv)
    wy_i = float(data.WY[i])
    w = (blocks.I_br[:, 0] / blocks.I_rr) * wy_i - data.X[i]
    Gw = g_matrix(blocks, S).T @ w
    penalty = float(Gw @ (0.5 * (Q + Q.T)) @ Gw)
    return float((w - Gw) @ delta) ** 2 + wy_i * wy_i / blocks.I_rr + penalty


def safic_score(S: SubmodelId, bias2: float, penalty: float, labels: tuple[str, ...] = (),
                scheme: str = "uniform", rank: int = 0) -> FicRow:
    """The ranked row of S from its two terms of the sweep; the score is their sum."""
    return FicRow(S, labels, float(bias2), float(penalty), float(bias2 + penalty), rank, scheme)
