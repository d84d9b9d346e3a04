"""Spatially averaged FIC: weighted average risk of the estimated linear predictor.

The pointwise AMSE of the linear predictor at unit i decomposes into a
misspecification (deviance) term, a shared rho term, and an overfitting
penalty.  Averaging over units with weights psi turns the sum into two traces
against the empirical second-moment matrix K of the omega vectors; the shared
rho term is constant across submodels and dropped from the score.

All (rho, beta) information blocks are taken from the wide-model estimate with
the sigma^2 coordinate removed by deletion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandwidthError
from .slm import Dataset, FisherInfo, _require_conditioned
from .submodels import SubmodelId, projection_matrix


@dataclass(frozen=True)
class PsiWeights:
    """Nonnegative unit-sum weights over the spatial units."""

    psi: np.ndarray
    scheme: str = "uniform"

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float).reshape(-1)
        if np.any(psi < 0):
            raise ValueError("weights must be nonnegative")
        if abs(psi.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {psi.sum()!r}")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)


def psi_uniform(n: int) -> PsiWeights:
    if n < 1:
        raise ValueError("need at least one unit")
    return PsiWeights(np.full(n, 1.0 / n), scheme="uniform")


def psi_kernel(X: np.ndarray, z0: np.ndarray, h: float) -> PsiWeights:
    """Gaussian-kernel weights centered at covariate level z0, renormalized to sum 1."""
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    X = np.asarray(X, dtype=float)
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if z0.shape[0] != X.shape[1]:
        raise ValueError(f"kernel center has {z0.shape[0]} entries, X has {X.shape[1]} columns")
    p = X.shape[1]
    d2 = np.sum((X - z0[None, :]) ** 2, axis=1)
    raw = (2.0 * np.pi) ** (-p / 2.0) * np.exp(-0.5 * d2 / (h * h))
    total = raw.sum()
    if total < 1e-300:
        raise BandwidthError(f"bandwidth h={h} too small: all kernel weights underflow")
    return PsiWeights(raw / total, scheme="kernel")


def median_bandwidth(X: np.ndarray) -> float:
    """Median pairwise Euclidean distance among the rows of X."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    iu = np.triu_indices(n, k=1)
    d = np.sqrt(np.sum((X[iu[0]] - X[iu[1]]) ** 2, axis=1))
    h = float(np.median(d))
    if h <= 0:
        raise BandwidthError("median pairwise distance is zero; supply a bandwidth")
    return h


@dataclass(frozen=True)
class RhoBetaBlocks:
    """(rho, beta) partition of the information, the beta Schur complement
    Q_inv = I_bb - I_br I_rb / I_rr and its inverse Q."""

    I_rr: float
    I_rb: np.ndarray  # 1 x p
    I_br: np.ndarray  # p x 1
    I_bb: np.ndarray  # p x p
    Q: np.ndarray     # p x p
    Q_inv: np.ndarray  # p x p

    @property
    def p(self) -> int:
        return self.I_bb.shape[0]


def rho_beta_blocks(info_full: FisherInfo) -> RhoBetaBlocks:
    """Drop the sigma^2 row/column and invert the beta Schur complement."""
    I = info_full.matrix
    p = I.shape[0] - 2
    I_rr = float(I[0, 0])
    I_rb = I[0:1, 2:]
    I_br = I[2:, 0:1]
    I_bb = I[2:, 2:]
    schur = I_bb - (I_br @ I_rb) / I_rr
    _require_conditioned(schur, "beta Schur complement of the wide information")
    Q = np.linalg.inv(schur)
    Q = 0.5 * (Q + Q.T)
    return RhoBetaBlocks(I_rr=I_rr, I_rb=I_rb, I_br=I_br, I_bb=I_bb, Q=Q, Q_inv=schur)


def g_matrix(blocks: RhoBetaBlocks, S: SubmodelId) -> np.ndarray:
    """Submodel projection G_S = Pi_S' Q_S Pi_S Q^{-1}; zero for the narrow model."""
    p = blocks.p
    if len(S) == 0:
        return np.zeros((p, p))
    Pi = projection_matrix(S)
    M = Pi @ blocks.Q_inv @ Pi.T
    _require_conditioned(M, f"projected inverse-Q block for {S.label()}")
    Q_S = np.linalg.inv(M)
    return Pi.T @ Q_S @ Pi @ blocks.Q_inv


def omega_i(i: int, data: Dataset, blocks: RhoBetaBlocks) -> np.ndarray:
    """Sensitivity vector of unit i: I_br * I_rr^{-1} * (WY)_i - x_i."""
    if not 0 <= i < data.n:
        raise ValueError(f"unit index {i} out of range for n={data.n}")
    wy_i = float(data.WY[i])
    return (blocks.I_br[:, 0] / blocks.I_rr) * wy_i - data.X[i]


def h_empirical(data: Dataset, psi: PsiWeights) -> np.ndarray:
    """Weighted second-moment matrix of the linear-predictor gradients (rho; beta)."""
    if len(psi.psi) != data.n:
        raise ValueError("weights length must equal the number of units")
    Psi_WY = psi.psi * data.WY
    top_left = float(data.WY @ Psi_WY)
    top_right = Psi_WY @ data.X
    bottom_right = data.X.T @ (psi.psi[:, None] * data.X)
    H = np.empty((data.p + 1, data.p + 1))
    H[0, 0] = top_left
    H[0, 1:] = top_right
    H[1:, 0] = top_right
    H[1:, 1:] = bottom_right
    return H


def k_empirical(blocks: RhoBetaBlocks, H: np.ndarray) -> np.ndarray:
    """Second-moment matrix of the omega vectors from the H partition.

    Equals sum_i psi_i omega_i omega_i'; the cross term is symmetrized before
    assembly to guard floating-point drift.
    """
    A = blocks.I_br / blocks.I_rr  # p x 1
    H_rr = H[0, 0]
    H_rb = H[0:1, 1:]
    H_bb = H[1:, 1:]
    cross = A @ H_rb
    K = (A * H_rr) @ A.T - (cross + cross.T) + H_bb
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


@dataclass(frozen=True)
class SaficRow:
    submodel: SubmodelId
    labels: tuple[str, ...]
    bias2: float
    variance: float  # overfitting penalty trace
    score: float
    scheme: str
    rank: int = 0


def safic_score(
    S: SubmodelId,
    delta: np.ndarray,
    blocks: RhoBetaBlocks,
    K: np.ndarray,
    labels: tuple[str, ...] = (),
    scheme: str = "uniform",
) -> SaficRow:
    """Weighted-average risk of submodel S, excluding the shared rho term."""
    p = blocks.p
    G = g_matrix(blocks, S)
    IG = np.eye(p) - G
    Dd = np.outer(delta, delta)
    bias2 = float(np.trace(IG @ Dd @ IG.T @ K))
    penalty = float(np.trace(G @ blocks.Q @ G.T @ K))
    return SaficRow(
        submodel=S,
        labels=labels,
        bias2=bias2,
        variance=penalty,
        score=bias2 + penalty,
        scheme=scheme,
    )
