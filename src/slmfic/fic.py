"""Focused information criterion for spatial lag submodels.

For each candidate subset S the criterion estimates the asymptotic mean
squared error of the scaled focus estimator: a squared-bias term driven by the
local misspecification direction (estimated by sqrt(n) times the wide-model
coefficients) plus a variance term from the submodel information, a block of
the wide information that is certified once for every subset.  Submodels are
ranked by ascending score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .slm import FisherInfo, FitResult, _certify, _gather, _size_groups
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


def submodel_info(info_full: FisherInfo, S: SubmodelId) -> FisherInfo:
    """Keep the (rho, sigma^2) rows/columns and the beta entries selected by S."""
    idx = [0, 1] + [2 + j for j in S.indices()]
    return FisherInfo(matrix=info_full.matrix[np.ix_(idx, idx)], n_obs=info_full.n_obs)


def m_matrix(info_full: FisherInfo, S: SubmodelId) -> np.ndarray:
    """Mean-shift matrix m_S = I_S^{-1} B_S of the submodel MLE under local
    misspecification, B_S the information rows of (rho, sigma^2, beta_S)
    against the wide beta with the sigma^2 row zeroed (beta and sigma^2 are
    orthogonal).  Not used in the sweep: it is fic_terms' test oracle.
    """
    idx = [0, 1] + [2 + j for j in S.indices()]
    I_S = info_full.matrix[np.ix_(idx, idx)]
    _certify(I_S, f"submodel information for {S.label()}")
    B = info_full.matrix[idx, 2:]
    B[1] = 0.0
    return np.linalg.solve(I_S, B)


def delta_hat(fit_wide: FitResult) -> np.ndarray:
    """Plug-in estimate of the misspecification direction: sqrt(n) * beta_wide."""
    if not fit_wide.submodel.is_wide:
        raise ValueError("delta_hat requires the wide-model fit")
    if fit_wide.info is None:
        raise ValueError("wide fit must carry an information estimate (n_obs)")
    return np.sqrt(fit_wide.info.n_obs) * fit_wide.theta_hat.beta


def fic_terms(subsets, J: np.ndarray, J_beta_wide: np.ndarray, I: np.ndarray,
              D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared-bias and variance arrays, (R, m), of R datasets on m subsets.

    J is what focus.eval_focus_batch returns at the wide fits of a theta-free
    focus, (R, 1, d, p + 2), whose (rho, sigma^2, beta_S) columns are each
    subset's J_S, or at every fit, (R, m, d, p + 2), each J_S in its subset's
    columns and zeros elsewhere; any other shape raises ValueError.  J_beta_wide
    is (R, d, p), D (R, p) and I (R, p + 2, p + 2) the wide informations,
    certified by the caller (fit_mle does): by interlacing that certifies every
    block I_S.  Per chunk of same-size subsets, one stacked solve of their
    (R, s) blocks gives every A = J_S I_S^{-1}: the bias matrix is A B_S -
    J_beta_wide, B_S the rows of (rho, sigma^2, beta_S) against the wide beta
    with the sigma^2 row zeroed (beta and sigma^2 are orthogonal), centered so
    that the wide model is asymptotically unbiased, and the variance
    tr(J_S I_S^{-1} J_S') = sum(A * J_S).
    """
    reps, k = I.shape[0], I.shape[-1]
    d = J.shape[2]
    J = np.broadcast_to(J, (reps, len(subsets), d, k))  # a (R, 1, ...) J serves every subset
    bias2, variance = np.empty((reps, len(subsets))), np.empty((reps, len(subsets)))
    for idx, cols in _size_groups(subsets, k * (k + d), reps):
        ii = np.column_stack((np.zeros_like(idx), np.ones_like(idx), cols + 2))
        B = _gather(I, ii, slice(2, None))
        B[..., 1, :] = 0.0
        J_S = _gather(J, idx[:, None, None], np.arange(d)[:, None], ii[:, None])
        I_S = _gather(I, ii[:, :, None], ii[:, None])
        A = np.swapaxes(np.linalg.solve(I_S, np.swapaxes(J_S, -1, -2)), -1, -2)
        bD = ((A @ B - J_beta_wide[:, None]) @ D[:, None, :, None])[..., 0]
        bias2[:, idx] = (bD[..., None, :] @ bD[..., :, None])[..., 0, 0]
        variance[:, idx] = np.sum((A * J_S).reshape(reps, idx.size, -1), axis=-1)
    return bias2, variance


def fic_score(S: SubmodelId, bias2: float, variance: float, labels: tuple[str, ...] = (),
              rank: int = 0) -> FicRow:
    """The ranked row of S from its two terms of fic_terms; the score is their sum."""
    return FicRow(S, labels, float(bias2), float(variance), float(bias2 + variance), rank)
