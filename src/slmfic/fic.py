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

from .slm import FisherInfo, FitResult, _certify, _dot, _gather, _size_groups
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
    columns, the others never read; any other shape raises ValueError.  J_beta_wide
    is (R, d, p), D (R, p) and I (R, p + 2, p + 2) the wide informations,
    certified by the caller (fit_mle does): by interlacing that certifies every
    block I_S.  The risk kernel, rho and sigma^2 always kept, gives the bias
    J_S I_S^{-1} B_S D - J_beta_wide D, B_S the rows of (rho, sigma^2, beta_S)
    against the wide beta with the sigma^2 row zeroed (beta and sigma^2 are
    orthogonal), centered so that the wide model is asymptotically unbiased,
    and the variance tr(J_S I_S^{-1} J_S')."""
    b = _dot(I[:, :, 2:], D[:, None])
    b[:, 1] = 0.0
    return _risk_terms(subsets, 2, I, b, np.swapaxes(J, -1, -2), _dot(J_beta_wide, D[:, None]))


def _risk_terms(subsets, keep: int, M: np.ndarray, b: np.ndarray, G: np.ndarray,
                c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two risk terms, (R, m) arrays, of R datasets on m subsets, of FIC
    (fic_terms) and sAFIC (simulate._sweep) alike: M (R, k, k), certified by
    the caller, b (R, k), G (R, 1 or m, k, q), one for every subset or one per
    subset, and c (R, q).  Subset S keeps the coordinates T = 0..keep - 1 and
    keep + S; with x = M_TT^{-1} b_T and Y = M_TT^{-1} G_T, its squared bias is
    |G_T' x - c|^2 and its second term sum(G_T * Y) = tr(G_T' M_TT^{-1} G_T).
    Per chunk of same-size subsets, one stacked solve of their (R, |T|)
    blocks M_TT against [b_T | G_T]."""
    (reps, k), q = M.shape[:2], G.shape[-1]
    G = np.broadcast_to(G, (reps, len(subsets), k, q))  # a (R, 1, ...) G serves every subset
    bias2, second = np.empty((reps, len(subsets))), np.empty((reps, len(subsets)))
    for idx, cols in _size_groups(subsets, k * max(k, q + 1), reps):
        T = np.column_stack((np.tile(np.arange(keep), (idx.size, 1)), cols + keep))
        G_T = _gather(G, idx[:, None, None], T[:, :, None], np.arange(q))
        sol = np.linalg.solve(_gather(M, T[:, :, None], T[:, None]),
                              np.concatenate((_gather(b, T)[..., None], G_T), axis=-1))
        r = (np.swapaxes(G_T, -1, -2) @ sol[..., :1])[..., 0] - c[:, None]
        bias2[:, idx] = _dot(r, r)
        second[:, idx] = np.sum((G_T * sol[..., 1:]).reshape(reps, idx.size, -1), axis=-1)
    return bias2, second


def fic_score(S: SubmodelId, bias2: float, variance: float, labels: tuple[str, ...] = (),
              rank: int = 0) -> FicRow:
    """The ranked row of S from its two terms of fic_terms; the score is their sum."""
    return FicRow(S, labels, float(bias2), float(variance), float(bias2 + variance), rank)
