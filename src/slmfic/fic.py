"""Focused information criterion for spatial lag submodels.

For each candidate subset S the criterion estimates the asymptotic mean
squared error of the scaled focus estimator: a squared-bias term driven by the
local misspecification direction (estimated by sqrt(n) times the wide-model
coefficients) plus a variance term from the submodel information, a block of
the wide information that is certified once for every subset.  Submodels are
ranked by ascending score.  One risk kernel, _risk_terms, scores every subset
of FIC and sAFIC alike from the inverse Cholesky factor of its block, each
bordered by one row from its parent's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import weights
from .slm import FisherInfo, FitResult, _certify, _dot
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
    orthogonal), by a Cholesky solve.  Not used in the sweep: it is
    fic_terms' test oracle.
    """
    idx = [0, 1] + [2 + j for j in S.indices()]
    I_S = info_full.matrix[np.ix_(idx, idx)]
    _certify(I_S, f"submodel information for {S.label()}")
    B = info_full.matrix[idx, 2:]
    B[1] = 0.0
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(I_S), B)


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
    keep + S; with R_T the inverse Cholesky factor of M_TT (R_T M_TT R_T' = I)
    and Z = R_T [b_T | G_T], its squared bias is |Z_G' Z_b - c|^2 =
    |G_T' M_TT^{-1} b_T - c|^2 and its second term |Z_G|_F^2 =
    tr(G_T' M_TT^{-1} G_T).  A G of one entry per subset (m = 1 included) is
    read in each subset's rows T alone; one G shared by m > 1 subsets enters
    whole, its rows outside T times the zeros of R_T's frame, so it must be
    finite.

    Each R_T borders its parent's, the subset without its highest covariate,
    by one row (_border), as in all-subsets regression (Furnival & Wilson
    1974, *Technometrics* 16(4)); the root is the keep x keep block.  The
    factors sit in a k x k frame, zero outside T, so that every state has one
    shape.  The states of all 2^a subsets of the a lowest covariates are
    built by doubling, a the largest, at most p = k - keep, with
    R 2^a k max(k, q + 1) <= weights._CHUNK elements (or 0); a depth-first walk
    over the other covariates then borders all 2^a states at once, in place,
    at each combination of them that a subset reaches, and takes the row back
    out when it leaves.  Beside its inputs, its outputs and a few index
    entries per subset, the kernel holds at most
    4 max(weights._CHUNK, R k max(k, q + 1)) elements."""
    (reps, k), q, m = M.shape[:2], G.shape[-1], len(subsets)
    np.broadcast_shapes(G.shape[1:2], (m,))  # one G for every subset or one per subset
    p = k - keep
    masks = np.array([S.mask for S in subsets], dtype=np.int64)
    low = min(p, max(1, weights._CHUNK // max(1, reps * k * max(k, q + 1))).bit_length() - 1)
    order = np.argsort(masks >> low, kind="stable")
    highs, starts = np.unique(masks[order] >> low, return_index=True)
    at = dict(zip(highs.tolist(), np.split(order, starts[1:])))
    reached = {0}
    for h in at:  # a walk node needs its ancestors: the high part less its top bit
        while h not in reached:
            reached.add(h)
            h ^= 1 << h.bit_length() - 1
    masked = G.shape[1] == m  # each subset's own G, whose rows outside T may hold anything
    if not masked:
        G = np.ascontiguousarray(G)  # sAFIC's factor arrives column-major
    bias2, second = np.empty((reps, m)), np.empty((reps, m))
    states = np.zeros((reps, 1, k, k))
    for j in range(keep):
        _border(states, M, j)
    for j in range(keep, keep + low):
        states = np.concatenate((states, states), axis=1)
        _border(states[:, states.shape[1] // 2:], M, j)

    def score(high):
        """The terms of the subsets at walk node high, if any."""
        idx = at.get(high)
        if idx is None:
            return
        lows = masks[idx] & (1 << low) - 1
        R_T = states if np.array_equal(lows, np.arange(1 << low)) else states[:, lows]
        if masked:
            inside = np.ones((idx.size, k), bool)
            inside[:, keep:] = masks[idx, None] >> np.arange(p) & 1
            Z_G = R_T @ np.where(inside[:, :, None], G[:, idx], 0.0)
        else:
            Z_G = R_T @ G
        Z_b = (R_T @ b[:, None, :, None])[..., 0]
        r = (Z_b[..., None, :] @ Z_G)[..., 0, :] - c[:, None]
        bias2[:, idx] = _dot(r, r)
        Z_G = Z_G.reshape(reps, idx.size, -1)
        second[:, idx] = _dot(Z_G, Z_G)

    score(0)
    stack = [(0, 0)]  # a walk node's high part and the next high covariate to try
    while stack:
        high, j = stack.pop()
        if j == p - low:  # the node's subtree is done: take its top row back out
            if high:
                states[..., keep + low + high.bit_length() - 1, :] = 0.0
            continue
        stack.append((high, j + 1))
        if high | 1 << j in reached:
            _border(states, M, keep + low + j)
            score(high | 1 << j)
            stack.append((high | 1 << j, j + 1))
    return bias2, second


def _border(states: np.ndarray, M: np.ndarray, j: int) -> None:
    """Border, in place, the states (R, n, k, k), inverse Cholesky factors R_P
    of blocks M_PP of M (R, k, k) in a k x k frame, zero outside P, by the
    coordinate j > max(P): with l = R_P M_Pj and d = sqrt(M_jj - l'l), row j
    becomes (e_j' - l'R_P) / d, the factor of M_TT, T = P + {j}."""
    l = (states @ M[:, None, :, j, None])[..., 0]
    d = np.sqrt(M[:, None, j, j] - _dot(l, l))
    row = -(l[..., None, :] @ states)[..., 0, :]
    row[..., j] = 1.0
    states[..., j, :] = row / d[..., None]


def fic_score(S: SubmodelId, bias2: float, variance: float, labels: tuple[str, ...] = (),
              rank: int = 0) -> FicRow:
    """The ranked row of S from its two terms of fic_terms; the score is their sum."""
    return FicRow(S, labels, float(bias2), float(variance), float(bias2 + variance), rank)
