"""Maximum likelihood estimation of the Gaussian spatial lag model.

The model is Y = rho*W*Y + X*beta + eps with iid Gaussian innovations.  For a
fixed rho the problem reduces to ordinary regression of (I - rho*W)Y on X, so
beta and sigma^2 are profiled out in closed form and rho is found by bounded
1-D search on the concentrated log-likelihood.  The score and the observed
information, ordered (rho, sigma^2, beta), are closed forms (Anselin 1988,
*Spatial Econometrics*; Lee 2004, *Econometrica* 72(6)) built from WY, X_S,
the residual and the cached spectrum of W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (
    ConvergenceError,
    DataFormatError,
    DegenerateVarianceError,
    RankError,
    SingularInformationError,
)
from .submodels import SubmodelId
from .weights import SpatialWeights

_LOG_2PI = math.log(2.0 * math.pi)
_SIGMA2_FLOOR = 1e-12
_MAX_ITER = 500
_COND_LIMIT = 1e12  # information matrices and blocks above it count as singular


def _require_conditioned(M: np.ndarray, what: str) -> None:
    """Raise SingularInformationError, naming `what`, when the condition number
    of M is not finite or exceeds _COND_LIMIT.  An empty M (p = 0) has nothing to invert."""
    if M.size == 0:
        return
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularInformationError(f"{what} has condition number {cond:.3e}")


@dataclass(frozen=True)
class Dataset:
    """Response vector, design matrix, spatial weights, variable names and the
    spatial lag WY of the response, computed once on construction."""

    Y: np.ndarray
    X: np.ndarray
    W: SpatialWeights
    names: tuple[str, ...] = ()
    WY: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float).reshape(-1)
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise DataFormatError("X must be 2-dimensional")
        if not (len(Y) == X.shape[0] == self.W.n):
            raise DataFormatError(
                f"dimension mismatch: len(Y)={len(Y)}, rows(X)={X.shape[0]}, n(W)={self.W.n}"
            )
        names = tuple(self.names) if self.names else tuple(f"x{j + 1}" for j in range(X.shape[1]))
        if len(names) != X.shape[1]:
            raise DataFormatError("number of names must match columns of X")
        bad = np.flatnonzero(~np.isfinite(Y))
        if bad.size:
            raise DataFormatError(f"non-finite response {Y[bad[0]]} at row {bad[0]}")
        bad = np.argwhere(~np.isfinite(X))
        if bad.size:
            i, j = bad[0]
            raise DataFormatError(
                f"non-finite covariate {X[i, j]} at row {i}, column {j} ({names[j]!r})"
            )
        if X.shape[0] < X.shape[1]:
            raise RankError(f"design matrix X is rank deficient: {X.shape[1]} columns, "
                            f"{X.shape[0]} rows")
        if X.shape[1] > 0:
            sv = np.linalg.svd(X, compute_uv=False)
            if sv[-1] <= 1e-10 * sv[0]:
                raise RankError("design matrix X is rank deficient")
        WY = self.W.matrix @ Y
        for a in (Y, X, WY):
            a.setflags(write=False)
        object.__setattr__(self, "WY", WY)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return len(self.Y)

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class Theta:
    """Parameter point (rho, sigma^2, beta) of a (sub)model."""

    rho: float
    sigma2: float
    beta: np.ndarray

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float).reshape(-1))

    def to_vector(self) -> np.ndarray:
        return np.concatenate(([self.rho, self.sigma2], self.beta))

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "Theta":
        return cls(float(v[0]), float(v[1]), np.asarray(v[2:], dtype=float))


@dataclass(frozen=True)
class FisherInfo:
    """Per-observation information estimate, ordered (rho, sigma^2, beta_S)."""

    matrix: np.ndarray
    n_obs: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FitResult:
    theta_hat: Theta
    loglik: float
    info: FisherInfo | None
    submodel: SubmodelId
    converged: bool
    iterations: int
    warnings: tuple[str, ...] = field(default_factory=tuple)


def _design(data: Dataset, S: SubmodelId) -> np.ndarray:
    return data.X[:, S.indices()]


def profile_beta(rho: float, data: Dataset, S: SubmodelId) -> np.ndarray:
    """Profiled MLE of beta_S at a given rho: regress (I - rho*W)Y on X_S.

    Computed as beta_R - rho*beta_L, the least-squares fits of Y and WY on the
    selected columns.
    """
    data.W.require_rho(rho)
    return _ProfileCache(data, S).beta(rho)


def profile_sigma2(rho: float, data: Dataset, S: SubmodelId) -> float:
    """Profiled MLE of sigma^2 (divisor n) at a given rho."""
    data.W.require_rho(rho)
    return _ProfileCache(data, S).sigma2(rho)


def concentrated_loglik(rho: float, data: Dataset, S: SubmodelId) -> float:
    """Profile log-likelihood of rho with beta and sigma^2 concentrated out."""
    data.W.require_rho(rho)
    return _ProfileCache(data, S).loglik(rho)


def full_loglik(theta: Theta, data: Dataset, S: SubmodelId) -> float:
    """Gaussian log-likelihood of the spatial lag model at an arbitrary theta (fit_mle's oracle)."""
    if theta.sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    n = data.n
    z = data.Y - theta.rho * data.WY
    Xs = _design(data, S)
    resid = z - Xs @ theta.beta if Xs.shape[1] else z
    return (
        -(n / 2.0) * math.log(2.0 * math.pi * theta.sigma2)
        + data.W.log_det_factor(theta.rho)
        - float(resid @ resid) / (2.0 * theta.sigma2)
    )


class _ProfileCache:
    """The profile regression of submodel S, as a function of rho.

    Y and WY are regressed on X_S once, giving beta_R and beta_L.  The profiled
    beta is beta_R - rho*beta_L, and the residual sum of squares of
    (I - rho*W)Y on X_S is the quadratic a - 2*b*rho + c*rho^2, so the 1-D
    optimizer costs no regression per step.
    """

    def __init__(self, data: Dataset, S: SubmodelId):
        self.data = data
        Xs = _design(data, S)
        Y, WY = data.Y, data.WY
        if Xs.shape[1]:
            coef, _, _, sv = np.linalg.lstsq(Xs, np.column_stack((Y, WY)), rcond=None)
            if sv[-1] <= 1e-10 * sv[0]:
                raise RankError(f"X_S rank deficient for submodel {S}")
            self.beta_R, self.beta_L = coef[:, 0], coef[:, 1]
            e_R = Y - Xs @ self.beta_R
            e_L = WY - Xs @ self.beta_L
        else:
            self.beta_R = self.beta_L = np.empty(0)
            e_R, e_L = Y, WY
        self.a = float(e_R @ e_R)
        self.b = float(e_R @ e_L)
        self.c = float(e_L @ e_L)

    def beta(self, rho: float) -> np.ndarray:
        return self.beta_R - rho * self.beta_L

    def sigma2(self, rho: float) -> float:
        s2 = (self.a - 2.0 * rho * self.b + rho * rho * self.c) / self.data.n
        if s2 < _SIGMA2_FLOOR:
            raise DegenerateVarianceError(f"residual variance {s2:.3e} below floor")
        return s2

    def loglik(self, rho: float) -> float:
        n = self.data.n
        return (
            -n / 2.0
            - (n / 2.0) * _LOG_2PI
            - (n / 2.0) * math.log(self.sigma2(rho))
            + self.data.W.log_det_factor(rho)
        )


def fit_mle(data: Dataset, S: SubmodelId, with_info: bool = True) -> FitResult:
    """Fit the spatial lag model restricted to submodel S by maximum likelihood.

    rho is found by bounded scalar search on the concentrated likelihood over
    the admissible interval shrunk by 1e-6 of its range at both ends (the
    likelihood is singular at the boundary); beta and sigma^2 follow in closed
    form.
    """
    lo, hi = data.W.rho_interval
    if not (np.isfinite(lo) and np.isfinite(hi)):
        # unbounded admissible range (e.g. spectrum all zero): search a wide box
        lo = max(lo, -1e6)
        hi = min(hi, 1e6)
    margin = 1e-6 * (hi - lo)
    cache = _ProfileCache(data, S)
    res = minimize_scalar(
        lambda r: -cache.loglik(r),
        bounds=(lo + margin, hi - margin),
        method="bounded",
        options={"xatol": 1e-8, "maxiter": _MAX_ITER},
    )
    if not res.success:
        raise ConvergenceError(
            f"rho optimizer failed after {res.nfev} evaluations: {res.message}",
            best_rho=float(res.x),
        )
    rho_hat = float(res.x)
    theta_hat = Theta(rho_hat, cache.sigma2(rho_hat), cache.beta(rho_hat))
    warnings: tuple[str, ...] = ()
    info = None
    if with_info:
        info, warnings = _observed_info_checked(theta_hat, data, S)
    return FitResult(
        theta_hat=theta_hat,
        loglik=-float(res.fun),
        info=info,
        submodel=S,
        converged=True,
        iterations=int(res.nfev),
        warnings=warnings,
    )


def _derivative_terms(theta: Theta, data: Dataset, S: SubmodelId):
    """WY, X_S, the residual e = Y - rho*WY - X_S beta and g_i = w_i / (1 - rho*w_i)
    over the spectrum of W, the ingredients of the score and the Hessian."""
    data.W.require_rho(theta.rho)
    Xs = _design(data, S)
    e = data.Y - theta.rho * data.WY - Xs @ theta.beta
    w = data.W.spectrum
    return data.WY, Xs, e, w / (1.0 - theta.rho * w)


def observed_info(theta_hat: Theta, data: Dataset, S: SubmodelId) -> FisherInfo:
    """Per-observation observed information -H/n at theta_hat.

    H is the Hessian of the full log-likelihood over (rho, sigma^2, beta_S) in
    closed form (Anselin 1988; Lee 2004), with s2 = sigma^2:
    H_rr = -sum g_i^2 - WY'WY / s2, H_rs = -WY'e / s2^2,
    H_ss = n / (2 s2^2) - e'e / s2^3, H_rb = -X_S'WY / s2,
    H_sb = -X_S'e / s2^2, H_bb = -X_S'X_S / s2.
    """
    info, _ = _observed_info_checked(theta_hat, data, S)
    return info


def _observed_info_checked(theta_hat, data, S):
    WY, Xs, e, g = _derivative_terms(theta_hat, data, S)
    s2 = theta_hat.sigma2
    H = np.empty((Xs.shape[1] + 2,) * 2)
    H[0, 0] = -(g @ g) - (WY @ WY) / s2
    H[0, 1] = H[1, 0] = -(WY @ e) / s2**2
    H[1, 1] = data.n / (2.0 * s2**2) - (e @ e) / s2**3
    H[0, 2:] = H[2:, 0] = -(Xs.T @ WY) / s2
    H[1, 2:] = H[2:, 1] = -(Xs.T @ e) / s2**2
    H[2:, 2:] = -(Xs.T @ Xs) / s2
    H = 0.5 * (H + H.T)
    I_hat = -H / data.n
    warnings: tuple[str, ...] = ()
    if np.linalg.eigvalsh(I_hat)[0] <= 0:
        warnings = ("information matrix not positive definite at the fitted point",)
    _require_conditioned(I_hat, f"information of {S.label()}")
    return FisherInfo(matrix=I_hat, n_obs=data.n), warnings


def score_vector(theta: Theta, data: Dataset, S: SubmodelId) -> np.ndarray:
    """Gradient of the full log-likelihood over (rho, sigma^2, beta_S) in closed
    form: (WY'e / s2 - sum g_i, (e'e / s2 - n) / (2 s2), X_S'e / s2)."""
    WY, Xs, e, g = _derivative_terms(theta, data, S)
    s2 = theta.sigma2
    return np.concatenate(
        ([(WY @ e) / s2 - g.sum(), ((e @ e) / s2 - data.n) / (2.0 * s2)], (Xs.T @ e) / s2)
    )
