"""Global spatial autocorrelation (Moran's I) and AIC for fitted submodels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ZeroVarianceError
from .slm import FitResult
from .weights import SpatialWeights


@dataclass(frozen=True)
class MoranResult:
    I: float
    expected: float
    z: float
    p_value: float


def morans_i(x: np.ndarray, W: SpatialWeights) -> MoranResult:
    """Moran's I with z-score and two-sided p-value under the normal approximation.
    Weights with no positive entry (S0 = 0) define none: DataFormatError."""
    from scipy.special import ndtr  # not at import: nothing else in slmfic reads scipy.special

    x = np.asarray(x, dtype=float).reshape(-1)
    if len(x) != W.n:
        raise ValueError(f"vector length {len(x)} does not match n={W.n}")
    xt = x - x.mean()
    denom = float(xt @ xt)
    if denom == 0:
        raise ZeroVarianceError("input vector is constant; Moran's I undefined")
    w = W.matrix
    n = W.n
    S0 = float(w.sum())
    if S0 == 0:
        raise DataFormatError("weights have no positive entry; Moran's I undefined")
    I = (n / S0) * float(xt @ (w @ xt)) / denom

    # moments under the normality assumption, from the stored entries of W:
    # S1 = 1/2 ||W + W'||_F^2 and S2 = sum_i (row sum i + column sum i)^2
    S1 = 0.5 * float(((w + w.T) ** 2).sum())
    S2 = float(((w.sum(axis=1) + w.sum(axis=0)) ** 2).sum())
    EI = -1.0 / (n - 1)
    var = (n * n * S1 - n * S2 + 3.0 * S0 * S0) / ((n * n - 1.0) * S0 * S0) - EI * EI
    z = (I - EI) / np.sqrt(var)
    p = 2.0 * ndtr(-abs(z))  # the normal upper tail, as scipy.stats.norm.sf computes it
    return MoranResult(I=float(I), expected=EI, z=float(z), p_value=float(p))


def aic(fit: FitResult) -> float:
    """Akaike information criterion: rho and sigma^2 count in every submodel."""
    k = len(fit.submodel) + 2
    return -2.0 * fit.loglik + 2.0 * k
