"""Independent profile-likelihood fits, and the reference kernel built on them.

:func:`profile_aics` fits every covariate subset of a spatial lag model with
numpy and scipy only: the concentrated log-likelihood from two least-squares
residuals and the spectrum of W, maximized by a grid search refined with a
bounded scalar search.  The mc_paper gate compares slmfic's AIC winners with
it.  :func:`information` is the closed-form observed information and
:func:`fic_terms` assembles the FIC's squared bias and variance from it; the
FIC gates of sweep_p12 and maxvar_fic recompute table rows with them.

:class:`FitKernel` times the same fits on fixed inputs, and
:class:`EigenKernel` times LAPACK eigenvalues on the BLAS thread pool.  The
runner interleaves a workload's kernel with its units of work: the CPU
contention this benchmark meets slows code by up to 2x for seconds to minutes
at a time, and slows a kernel with the same mix of work by about the same
factor, so unit time over kernel time stays steady while either alone does
not.  Each kernel's NOMINAL_S, near its time on a quiet core of the machine
the baseline was measured on (2-vCPU x86-64 sandbox, Python 3.11, numpy 2.4,
OpenBLAS 0.3.31), sets the scale of the times scaled by it.  Changing this
file changes every scaled time the benchmark reports.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

# Coarse on purpose: small arrays keep every allocation below glibc's mmap
# threshold, so the kernel's speed does not depend on what the process
# allocated and freed before it.
_GRID = np.linspace(-0.99, 0.99, 67)
_STEP = _GRID[1] - _GRID[0]


def profile_fit(X: np.ndarray, Y: np.ndarray, WY: np.ndarray, spectrum: np.ndarray):
    """Maximum-likelihood (rho, sigma2, beta) and log-likelihood of the spatial
    lag model with covariates X (which may have no columns).

    rho ranges over (-1, 1), the admissible interval of a row-normalized W
    whose spectrum has 1 and -1 as extreme eigenvalues.
    """
    n, k = X.shape
    const = -n / 2.0 * (1.0 + math.log(2.0 * math.pi))

    def loglik(rho, a, b, c):
        rss = a - 2.0 * b * rho + c * rho * rho
        log_det = np.sum(np.log1p(-np.multiply.outer(rho, spectrum)), axis=-1)
        return const - n / 2.0 * np.log(rss / n) + log_det

    e_R, e_L = Y, WY
    beta_R = beta_L = np.zeros(0)
    if k:
        beta_R = np.linalg.lstsq(X, Y, rcond=None)[0]
        beta_L = np.linalg.lstsq(X, WY, rcond=None)[0]
        e_R, e_L = Y - X @ beta_R, WY - X @ beta_L
    abc = (e_R @ e_R, e_R @ e_L, e_L @ e_L)
    g = _GRID[int(np.argmax(loglik(_GRID, *abc)))]
    res = minimize_scalar(
        lambda r: -loglik(r, *abc),
        bounds=(max(g - _STEP, -1 + 1e-9), min(g + _STEP, 1 - 1e-9)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    rho = float(res.x)
    e = e_R - rho * e_L
    return rho, float(e @ e) / n, beta_R - rho * beta_L, -float(res.fun)


def profile_aics(X: np.ndarray, Y: np.ndarray, WY: np.ndarray, spectrum: np.ndarray) -> dict:
    """AIC of every subset of the columns of X, keyed by bit mask."""
    p = X.shape[1]
    aics = {}
    for mask in range(1 << p):
        cols = [j for j in range(p) if mask >> j & 1]
        loglik = profile_fit(X[:, cols], Y, WY, spectrum)[3]
        aics[mask] = -2.0 * loglik + 2.0 * (len(cols) + 2)
    return aics


def information(theta: np.ndarray, X: np.ndarray, Y: np.ndarray, WY: np.ndarray,
                spectrum: np.ndarray) -> np.ndarray:
    """Closed-form per-observation observed information, minus the Hessian of
    the log-likelihood over n, at theta = (rho, sigma2, beta) with covariates X.
    """
    n = len(Y)
    rho, s2, beta = theta[0], theta[1], theta[2:]
    e = Y - rho * WY - X @ beta
    H = np.empty((len(theta), len(theta)))
    H[0, 0] = -np.sum(spectrum**2 / (1.0 - rho * spectrum) ** 2) - (WY @ WY) / s2
    H[0, 1] = H[1, 0] = -(WY @ e) / s2**2
    H[1, 1] = n / (2.0 * s2**2) - (e @ e) / s2**3
    H[0, 2:] = H[2:, 0] = -(X.T @ WY) / s2
    H[1, 2:] = H[2:, 1] = -(X.T @ e) / s2**2
    H[2:, 2:] = -(X.T @ X) / s2
    return -H / n


def fic_terms(J_S: np.ndarray, J_wide_beta: np.ndarray, info: np.ndarray, cols: list,
              delta: np.ndarray) -> tuple[float, float]:
    """Squared bias and variance of the FIC of the subset `cols`.

    info is the wide model's information over (rho, sigma2, beta).  The
    submodel estimator's mean shift under local misspecification solves
    I_S m_S = B_S, where B_S stacks the rho-beta cross information, a zero
    sigma2 row (beta and sigma2 are orthogonal at the truth) and the selected
    rows of the beta block; the bias is centred on the wide model's beta
    Jacobian.
    """
    p = len(delta)
    idx = [0, 1] + [2 + j for j in cols]
    I_S = info[np.ix_(idx, idx)]
    B = np.vstack([info[0, 2:], np.zeros(p), info[np.ix_([2 + j for j in cols], range(2, 2 + p))]])
    bias = (J_S @ np.linalg.solve(I_S, B) - J_wide_beta) @ delta
    return float(bias @ bias), float(np.trace(J_S @ np.linalg.solve(I_S, J_S.T)))


def chain_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized lag-1 chain weights and their (real) spectrum."""
    A = np.zeros((n, n))
    i = np.arange(n - 1)
    A[i, i + 1] = A[i + 1, i] = 1.0
    deg = A.sum(axis=1)
    s = 1.0 / np.sqrt(deg)
    return A / deg[:, None], np.linalg.eigvalsh(s[:, None] * A * s[None, :])


class FitKernel:
    """Subset fits on twelve fixed n = 75, p = 5 datasets: Python and
    small-array numpy, like the fits of the n = 75 workloads."""

    NOMINAL_S = 0.15

    def __init__(self):
        n, p = 75, 5
        W, self.spectrum = chain_weights(n)
        rng = np.random.default_rng(20251026)
        self.inputs = []
        for _ in range(12):
            X = rng.standard_normal((n, p))
            Y = np.linalg.solve(np.eye(n) - 0.5 * W, X[:, 1] * 0.2 + rng.standard_normal(n))
            self.inputs.append((X, Y, W @ Y))

    def __call__(self) -> float:
        """Seconds one pass over the fixed fits takes now."""
        t = time.perf_counter()
        for X, Y, WY in self.inputs:
            profile_aics(X, Y, WY, self.spectrum)
        return time.perf_counter() - t


class EigenKernel:
    """Symmetric eigenvalues of a fixed 1000 x 1000 matrix, twice, through
    LAPACK on the BLAS thread pool, like the spectrum of a large W."""

    NOMINAL_S = 0.15

    def __init__(self):
        rng = np.random.default_rng(20251026)
        B = rng.standard_normal((1000, 1000))
        self.matrix = B + B.T

    def __call__(self) -> float:
        t = time.perf_counter()
        for _ in range(2):
            np.linalg.eigvalsh(self.matrix)
        return time.perf_counter() - t
