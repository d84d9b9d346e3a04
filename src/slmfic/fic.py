"""Focused information criterion for spatial lag submodels.

For each candidate subset S the criterion estimates the asymptotic mean
squared error of the scaled focus estimator: a squared-bias term driven by the
local misspecification direction (estimated by sqrt(n) times the wide-model
coefficients) plus a variance term from the submodel information.  Submodels
are ranked by ascending score.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .slm import FisherInfo, FitResult, _require_conditioned
from .submodels import SubmodelId


@dataclass(frozen=True)
class FicRow:
    """Per-submodel squared bias, variance and total score of any criterion;
    scheme names the sAFIC weights and is None for FIC and AIC rows."""

    submodel: SubmodelId
    labels: tuple[str, ...]
    bias2: float
    variance: float
    score: float
    rank: int = 0
    scheme: str | None = None


def _info_indices(S: SubmodelId) -> list[int]:
    return [0, 1] + [2 + j for j in S.indices()]


def submodel_info(info_full: FisherInfo, S: SubmodelId) -> FisherInfo:
    """Keep the (rho, sigma^2) rows/columns and the beta entries selected by S."""
    idx = _info_indices(S)
    return FisherInfo(matrix=info_full.matrix[np.ix_(idx, idx)], n_obs=info_full.n_obs)


def _shift_rhs(info_full: FisherInfo, S: SubmodelId) -> np.ndarray:
    """B_S: the information rows of (rho, sigma^2, beta_S) against the wide beta,
    the sigma^2 row zeroed because beta and sigma^2 are orthogonal."""
    B = info_full.matrix[_info_indices(S), 2:]
    B[1] = 0.0
    return B


def m_matrix(info_full: FisherInfo, S: SubmodelId) -> np.ndarray:
    """Mean-shift matrix m_S = I_S^{-1} B_S of the submodel MLE under local
    misspecification.

    Not used in the sweep: fic_components forms J_S m_S with one solve.  This
    is the form the tests check it against.
    """
    I_S = submodel_info(info_full, S).matrix
    _require_conditioned(I_S, f"submodel information for {S.label()}")
    return np.linalg.solve(I_S, _shift_rhs(info_full, S))


def delta_hat(fit_wide: FitResult) -> np.ndarray:
    """Plug-in estimate of the misspecification direction: sqrt(n) * beta_wide."""
    if not fit_wide.submodel.is_wide:
        raise ValueError("delta_hat requires the wide-model fit")
    if fit_wide.info is None:
        raise ValueError("wide fit must carry an information estimate (n_obs)")
    return np.sqrt(fit_wide.info.n_obs) * fit_wide.theta_hat.beta


def fic_components(
    J_S: np.ndarray,
    J_beta_wide: np.ndarray,
    info_full: FisherInfo,
    S: SubmodelId,
    D_n: np.ndarray,
) -> tuple[float, float]:
    """Squared-bias and variance pieces of the criterion from raw matrices.

    With A = J_S I_S^{-1} from one solve, the bias matrix is A B_S - J_beta_wide,
    centered by the wide-model beta Jacobian so that the wide model itself is
    asymptotically unbiased, and the variance is tr(J_S I_S^{-1} J_S').
    """
    I_S = submodel_info(info_full, S).matrix
    _require_conditioned(I_S, f"submodel information for {S.label()}")
    A = np.linalg.solve(I_S, J_S.T).T
    bD = (A @ _shift_rhs(info_full, S) - J_beta_wide) @ D_n
    return float(bD @ bD), float(np.sum(A * J_S))


def fic_score(
    S: SubmodelId,
    J_S: np.ndarray,
    J_beta_wide: np.ndarray,
    info_wide: FisherInfo,
    D_n: np.ndarray,
    labels: tuple[str, ...] = (),
) -> FicRow:
    """Score one submodel from its focus Jacobian J_S over (rho, sigma^2, beta_S),
    the centring term J_beta_wide and D_n = delta_hat(fit_wide)."""
    bias2, variance = fic_components(J_S, J_beta_wide, info_wide, S, D_n)
    return FicRow(S, labels, bias2, variance, bias2 + variance)


def rank_models(rows: list[FicRow]) -> list[FicRow]:
    """Assign ranks by ascending score; ties favor smaller models, then masks."""
    if not rows:
        raise ValueError("cannot rank an empty model list")
    order = sorted(
        range(len(rows)),
        key=lambda i: (rows[i].score, len(rows[i].submodel), rows[i].submodel.mask),
    )
    ranked = list(rows)
    for rank, i in enumerate(order, start=1):
        ranked[i] = replace(rows[i], rank=rank)
    return ranked
