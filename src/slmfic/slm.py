"""Maximum likelihood estimation of the Gaussian spatial lag model.

The model is Y = rho*W*Y + X*beta + eps with iid Gaussian innovations.  For a
fixed rho the problem reduces to ordinary regression of (I - rho*W)Y on X, so
beta and sigma^2 are profiled out in closed form; fit_subsets finds rho for
many subsets at once, as the root of the profile score, from one QR of X and
one vectorised Newton search.  The score and the observed information, ordered
(rho, sigma^2, beta), are closed forms (Anselin 1988, *Spatial Econometrics*;
Lee 2004, *Econometrica* 72(6)) built from WY, X_S, the residual and the
spectrum of W, which the weights compute on its first read and keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

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
_RHO_TOL = 1e-12  # step size, relative to the bracket, that ends the rho search
_CHUNK = 1 << 16  # elements of one stacked temporary in a fit or scoring batch
_COND_LIMIT = 1e12  # an information matrix whose condition number exceeds it counts as singular


def _certify(M: np.ndarray, what: str) -> None:
    """Raise SingularInformationError, naming `what`, unless the symmetric M is
    finite and positive definite with lambda_max <= _COND_LIMIT * lambda_min, by
    one eigvalsh.  An empty M (p = 0) has nothing to invert.

    One check per wide matrix serves every subset: each principal block of a
    symmetric positive-definite matrix, and each principal block of its Schur
    complements, is positive definite with a condition number no larger than
    the whole matrix's (Cauchy interlacing; Horn & Johnson, *Matrix Analysis*,
    2nd ed., Thm 4.3.28 and Cor. 7.3.6).  So the blocks I_S of the wide
    information and M_S of its beta Schur complement are solved unchecked."""
    if not M.size:
        return
    if not np.all(np.isfinite(M)):
        raise SingularInformationError(f"{what} has a non-finite entry")
    lo, hi = np.linalg.eigvalsh(M)[[0, -1]]
    if not lo > 0:
        raise SingularInformationError(
            f"{what} is not positive definite: smallest eigenvalue {lo:.3e}")
    if hi > _COND_LIMIT * lo:
        raise SingularInformationError(f"{what} has condition number {hi / lo:.3e}")


def _size_groups(subsets, width: int):
    """The subsets by size k, ascending: (idx, cols), idx the positions of at
    most _CHUNK // width subsets of size k and cols their (len(idx), k) sorted
    covariate indices, read from the masks.  width is what one subset adds to
    the largest stacked temporary, so none holds more than _CHUNK elements."""
    masks = np.array([S.mask for S in subsets], dtype=np.int64)
    sizes = np.array([len(S) for S in subsets], dtype=int)
    bits = np.arange(subsets[0].p if subsets else 0)
    step = max(1, _CHUNK // max(1, width))
    for k in np.unique(sizes):
        same = np.flatnonzero(sizes == k)
        for idx in (same[i:i + step] for i in range(0, same.size, step)):
            yield idx, np.nonzero(masks[idx, None] >> bits & 1)[1].reshape(idx.size, k)


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


@dataclass(frozen=True)
class FitResult:
    theta_hat: Theta
    loglik: float
    info: FisherInfo | None
    submodel: SubmodelId
    converged: bool
    iterations: int


def _design(data: Dataset, S: SubmodelId) -> np.ndarray:
    return data.X[:, S.indices()]


def profile_beta(rho: float, data: Dataset, S: SubmodelId) -> np.ndarray:
    """Profiled MLE of beta_S at a given rho: regress (I - rho*W)Y on X_S.

    Computed as beta_R - rho*beta_L, the least-squares fits of Y and WY on the
    selected columns.
    """
    data.W.require_rho(rho)
    _, (coef,) = _regressions(_project(data), [S])
    return coef[:, 0] - rho * coef[:, 1]


def profile_sigma2(rho: float, data: Dataset, S: SubmodelId) -> float:
    """Profiled MLE of sigma^2 (divisor n) at a given rho."""
    data.W.require_rho(rho)
    return float(_sigma2(_regressions(_project(data), [S])[0], rho, data.n, [S])[0])


def concentrated_loglik(rho: float, data: Dataset, S: SubmodelId) -> float:
    """Profile log-likelihood of rho with beta and sigma^2 concentrated out."""
    data.W.require_rho(rho)
    gram, _ = _regressions(_project(data), [S])
    return float(_loglik(data, _sigma2(gram, rho, data.n, [S]), rho)[0])


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


def _project(data: Dataset):
    """One thin QR X = QR: R, z = Q'[Y, WY] and the residual Gram matrix of [Y, WY] on X."""
    Z = np.column_stack((data.Y, data.WY))
    Q, R = np.linalg.qr(data.X)
    z = Q.T @ Z
    outside = Z - Q @ z
    return R, z, outside.T @ outside


def _regressions(projection, subsets):
    """Regressions of Y and WY on X_S = Q R_S: their residual is the residual on
    X plus Q times that of z on R_S, a p-row problem with the singular values
    of X_S, solved by one stacked SVD per subset size.  These interlace the
    singular values of X, which Dataset holds to the rank rule, so no X_S is
    checked again.  Returns the (m, 2, 2) residual Gram matrices
    [[a, b], [b, c]], the residual sum of squares of (I - rho*W)Y being
    a - 2*b*rho + c*rho^2, and each (|S|, 2) coefficient array."""
    R, z, base = projection
    gram, coefs = np.empty((len(subsets), 2, 2)), [None] * len(subsets)
    for idx, cols in _size_groups(subsets, R.size):
        k = cols.shape[1]
        U, sv, Vt = np.linalg.svd(np.moveaxis(R[:, cols], 0, 1))
        Uz = np.swapaxes(U, 1, 2) @ z
        gram[idx] = base + np.swapaxes(Uz[:, k:], 1, 2) @ Uz[:, k:]
        for i, c in zip(idx, np.swapaxes(Vt, 1, 2) @ (Uz[:, :k] / sv[:, :, None])):
            coefs[i] = c
    return gram, coefs


def _sigma2(gram: np.ndarray, rho, n: int, subsets) -> np.ndarray:
    """Profiled sigma^2 of each subset at its rho, none below the floor."""
    s2 = (gram[:, 0, 0] - 2.0 * rho * gram[:, 0, 1] + rho * rho * gram[:, 1, 1]) / n
    if np.any(low := s2 < _SIGMA2_FLOOR):
        raise DegenerateVarianceError(f"residual variance {s2[low.argmax()]:.3e} below floor "
                                      f"for submodel {subsets[low.argmax()].label()}")
    return s2


def _loglik(data: Dataset, s2: np.ndarray, rho) -> np.ndarray:
    return -(data.n / 2.0) * (1.0 + _LOG_2PI + np.log(s2)) + data.W.log_det_factor(rho)


def _rho_hat(data: Dataset, gram: np.ndarray, subsets):
    """rho-hat of every subset and its steps: the root of the profile score
    -(n/2) q'/q - sum_i w_i / (1 - rho*w_i) in the admissible interval shrunk by
    1e-6 of its range (the likelihood is singular at its ends).  Where the score
    does not fall from positive to negative over it, the upper end if the score
    is not negative there, else the lower end, after no step.  Safeguarded
    Newton keeps such a bracket and bisects it when the curvature is not
    negative or a step leaves it."""
    W, n = data.W, data.n
    lo, hi = W.rho_interval
    if not (np.isfinite(lo) and np.isfinite(hi)):  # unbounded (e.g. spectrum all zero): a box
        lo, hi = max(lo, -1e6), min(hi, 1e6)
    lo, hi = lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo)
    a, b, c = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    # q is smallest at b/c: a variance below the floor anywhere in the bracket is degenerate
    _sigma2(gram, np.clip(b / np.where(c > 0, c, 1.0), lo, hi), n, subsets)

    def score(rho, i):
        q, dq = a[i] - 2.0 * b[i] * rho + c[i] * rho * rho, 2.0 * (c[i] * rho - b[i])
        return (W.log_det_rho_derivative(rho) - 0.5 * n * dq / q,
                W.log_det_rho_derivative(rho, 2) - 0.5 * n * (2.0 * c[i] * q - dq * dq) / (q * q))

    s_lo, s_hi = (score(np.full(len(a), r), np.arange(len(a)))[0] for r in (lo, hi))
    rho, steps = np.where(s_hi >= 0, hi, lo), np.zeros(len(a), dtype=int)
    active = np.flatnonzero((s_lo > 0) & (s_hi < 0))
    x, L, H = (np.full(active.size, r) for r in (0.5 * (lo + hi), lo, hi))
    for _ in range(_MAX_ITER):
        if not active.size:
            return rho, steps
        steps[active] += 1
        s, ds = score(x, active)
        L, H = np.where(s > 0, x, L), np.where(s < 0, x, H)
        newton = x - s / ds
        nxt = np.where((ds < 0) & (L <= newton) & (newton <= H), newton, 0.5 * (L + H))
        rho[active] = np.where(s == 0, x, nxt)
        going = (s != 0) & (np.abs(nxt - x) > _RHO_TOL * (hi - lo))
        active, x, L, H = active[going], nxt[going], L[going], H[going]
    raise ConvergenceError(f"rho search for submodel {subsets[active[0]].label()} did not "
                           f"converge in {_MAX_ITER} steps", best_rho=float(x[0]))


def fit_subsets(data: Dataset, subsets) -> dict[int, FitResult]:
    """Maximum-likelihood fits, without information, of the model restricted to
    each subset: {mask: FitResult} in the order given.  One QR of X serves every
    regression (_regressions), one search every rho (_rho_hat; its steps are
    FitResult.iterations); no stacked temporary holds more than _CHUNK elements."""
    subsets, projection, fits = list(subsets), _project(data), {}
    step = max(1, _CHUNK // max(data.n, data.p * data.p))
    for chunk in (subsets[i:i + step] for i in range(0, len(subsets), step)):
        gram, coefs = _regressions(projection, chunk)
        rho, steps = _rho_hat(data, gram, chunk)
        s2 = _sigma2(gram, rho, data.n, chunk)
        for S, r, v, ll, coef, k in zip(chunk, rho, s2, _loglik(data, s2, rho), coefs, steps):
            theta = Theta(float(r), float(v), coef[:, 0] - r * coef[:, 1])
            fits[S.mask] = FitResult(theta, float(ll), None, S, converged=True, iterations=int(k))
    return fits


def fit_mle(data: Dataset, S: SubmodelId, with_info: bool = True) -> FitResult:
    """Fit the spatial lag model restricted to submodel S by maximum likelihood:
    fit_subsets on S alone, plus the observed information when with_info."""
    fit = fit_subsets(data, [S])[S.mask]
    if not with_info:
        return fit
    return replace(fit, info=observed_info(fit.theta_hat, data, S))


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
    H_sb = -X_S'e / s2^2, H_bb = -X_S'X_S / s2.  The result is certified
    (_certify): one that is not positive definite or well conditioned raises.
    """
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
    _certify(I_hat, f"information of {S.label()}")
    return FisherInfo(matrix=I_hat, n_obs=data.n)


def score_vector(theta: Theta, data: Dataset, S: SubmodelId) -> np.ndarray:
    """Gradient of the full log-likelihood over (rho, sigma^2, beta_S) in closed
    form: (WY'e / s2 - sum g_i, (e'e / s2 - n) / (2 s2), X_S'e / s2)."""
    WY, Xs, e, g = _derivative_terms(theta, data, S)
    s2 = theta.sigma2
    return np.concatenate(
        ([(WY @ e) / s2 - g.sum(), ((e @ e) / s2 - data.n) / (2.0 * s2)], (Xs.T @ e) / s2)
    )
