"""Spatially averaged FIC: weighted average risk of the estimated linear predictor.

The pointwise AMSE of the linear predictor at unit i decomposes into a
misspecification (deviance) term, a shared rho term, and an overfitting
penalty.  Averaging over units with weights psi turns the sum into two traces
against the empirical second-moment matrix K of the omega vectors; the shared
rho term is constant across submodels and dropped from the score.  Both traces
reduce to one solve against the subset's block of the beta Schur complement,
which is certified once for every subset.

All (rho, beta) information blocks are taken from the wide-model estimate with
the sigma^2 coordinate removed by deletion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import BandwidthError, ConfigError
from .fic import FicRow
from .slm import Dataset, FisherInfo, _certify, _size_groups
from .submodels import SubmodelId


@dataclass(frozen=True)
class PsiWeights:
    """Finite nonnegative unit-sum weights over the spatial units."""

    psi: np.ndarray
    scheme: str = "uniform"

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
    return PsiWeights(np.full(n, 1.0 / n), scheme="uniform")


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
    return PsiWeights(raw / total, scheme="kernel")


def median_bandwidth(X: np.ndarray) -> float:
    """Median pairwise Euclidean distance among the rows of X."""
    h = float(np.median(pdist(np.asarray(X, dtype=float))))
    if h <= 0:
        raise BandwidthError("median pairwise distance is zero; supply a bandwidth")
    return h


@dataclass(frozen=True)
class RhoBetaBlocks:
    """(rho, beta) partition of the information, the beta Schur complement
    Q_inv = I_bb - I_br I_rb / I_rr and its inverse Q (read by pointwise_risk)."""

    I_rr: float
    I_br: np.ndarray  # p x 1
    Q: np.ndarray     # p x p
    Q_inv: np.ndarray  # p x p

    @property
    def p(self) -> int:
        return self.Q.shape[0]


def rho_beta_blocks(info_full: FisherInfo) -> RhoBetaBlocks:
    """Drop the sigma^2 row/column and invert the beta Schur complement."""
    I = info_full.matrix
    I_rr = float(I[0, 0])
    I_br = I[2:, 0:1]
    schur = I[2:, 2:] - (I_br @ I[0:1, 2:]) / I_rr
    _certify(schur, "beta Schur complement of the wide information")
    Q = np.linalg.inv(schur)
    Q = 0.5 * (Q + Q.T)
    return RhoBetaBlocks(I_rr=I_rr, I_br=I_br, Q=Q, Q_inv=schur)


def g_matrix(blocks: RhoBetaBlocks, S: SubmodelId) -> np.ndarray:
    """Submodel projection G_S = Pi_S' M_S^{-1} Pi_S Q^{-1} with M_S = Q^{-1}[S, S];
    zero for the narrow model.

    Not used in the sweep: safic_terms reads M_S without forming G_S.  This is
    the form pointwise_risk and the tests check it against.
    """
    G = np.zeros((blocks.p, blocks.p))
    sel = list(S.indices())
    if sel:
        M = blocks.Q_inv[np.ix_(sel, sel)]
        _certify(M, f"projected inverse-Q block for {S.label()}")
        G[sel] = np.linalg.solve(M, blocks.Q_inv[sel])
    return G


def omega_i(i: int, data: Dataset, blocks: RhoBetaBlocks) -> np.ndarray:
    """Sensitivity vector of unit i: I_br * I_rr^{-1} * (WY)_i - x_i."""
    if not 0 <= i < data.n:
        raise ValueError(f"unit index {i} out of range for n={data.n}")
    wy_i = float(data.WY[i])
    return (blocks.I_br[:, 0] / blocks.I_rr) * wy_i - data.X[i]


def k_empirical(blocks: RhoBetaBlocks, data: Dataset, psi: PsiWeights) -> np.ndarray:
    """Second-moment matrix K = sum_i psi_i omega_i omega_i' of the omega vectors,
    symmetrized to guard floating-point drift."""
    if len(psi.psi) != data.n:
        raise ValueError("weights length must equal the number of units")
    Omega = np.outer(data.WY, blocks.I_br[:, 0] / blocks.I_rr) - data.X
    K = Omega.T @ (psi.psi[:, None] * Omega)
    return 0.5 * (K + K.T)


def pointwise_risk(
    i: int,
    S: SubmodelId,
    delta: np.ndarray,
    blocks: RhoBetaBlocks,
    data: Dataset,
) -> float:
    """AMSE of the estimated linear predictor at unit i under submodel S."""
    w = omega_i(i, data, blocks)
    G = g_matrix(blocks, S)
    p = blocks.p
    resid_dir = (np.eye(p) - G).T @ w
    bias = float(resid_dir @ delta) ** 2
    wy_i = float(data.WY[i])
    rho_term = wy_i * wy_i / blocks.I_rr
    Gw = G.T @ w
    penalty = float(Gw @ blocks.Q @ Gw)
    return bias + rho_term + penalty


def safic_terms(subsets, delta: np.ndarray, blocks: RhoBetaBlocks,
                K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bias and penalty arrays of the weighted-average risk, one entry per subset,
    the shared rho term excluded.

    With M_S = Q^{-1}[S, S] the residual direction (I - G_S) delta is
    r = delta - Pi_S' M_S^{-1} (Q^{-1} delta)_S, the bias term is r'K r and the
    penalty tr(G_S Q G_S' K) is tr(M_S^{-1} K_SS).  Q^{-1} is certified once
    (_certify), which certifies every block M_S; per subset size, one stacked
    solve of the blocks M_S against [(Q^{-1} delta)_S | K_SS].
    """
    subsets, delta = list(subsets), np.asarray(delta, dtype=float)
    _certify(blocks.Q_inv, "beta Schur complement of the wide information")
    bias2, penalty = np.empty(len(subsets)), np.empty(len(subsets))
    for idx, cols in _size_groups(subsets, blocks.p * (blocks.p + 2)):
        sq = (cols[:, :, None], cols[:, None, :])
        rhs = np.concatenate(((blocks.Q_inv[cols] @ delta)[:, :, None], K[sq]), axis=2)
        sol = np.linalg.solve(blocks.Q_inv[sq], rhs)
        r = np.tile(delta, (idx.size, 1))
        r[np.arange(idx.size)[:, None], cols] -= sol[:, :, 0]
        penalty[idx] = np.trace(sol[:, :, 1:], axis1=1, axis2=2)
        bias2[idx] = (r[:, None, :] @ K @ r[:, :, None])[:, 0, 0]
    return bias2, penalty


def safic_score(S: SubmodelId, bias2: float, penalty: float, labels: tuple[str, ...] = (),
                scheme: str = "uniform", rank: int = 0) -> FicRow:
    """The ranked row of S from its two terms of safic_terms; the score is their sum."""
    return FicRow(S, labels, float(bias2), float(penalty), float(bias2 + penalty), rank, scheme)
