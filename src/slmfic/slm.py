"""Maximum likelihood estimation of the Gaussian spatial lag model.

The model is Y = rho*W*Y + X*beta + eps with iid Gaussian innovations.  For a
fixed rho the problem reduces to ordinary regression of (I - rho*W)Y on X, so
beta and sigma^2 are profiled out in closed form.  fit_mle fits a batch of
datasets on one W, each on many subsets, with a leading dataset axis through
every stage: one stacked QR of the designs, one stacked R-only QR per chunk
of same-size subsets for the profile regressions, and one vectorised Newton
search that finds rho, the root of the profile score, for every (dataset,
subset) pair at once, its log-det sums from SpatialWeights' spectrum pass;
weights._CHUNK bounds every stacked temporary.  A failed fit marks its
dataset with an error and leaves the others alone; fit_mle on one dataset
and one subset is its batch of one.  The profile score of rho and the
observed information, ordered (rho, sigma^2, beta), are closed forms
(Anselin 1988, *Spatial Econometrics*; Lee 2004, *Econometrica* 72(6)) in
WY, X_S, the residual and sums over the spectrum of W, which only
SpatialWeights reads (its log-det and log-det derivative methods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import weights
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
_GRID = 64  # points of the profile likelihood whose best brackets every rho search
_RHO_TOL = 1e-12  # step size, relative to the bracket, that ends the rho search
_COND_LIMIT = 1e12  # an information matrix whose Jacobi-scaled condition number exceeds it is singular


def _certificates(M: np.ndarray, what) -> list:
    """For each symmetric matrix of the stack M, (R, k, k), the error naming
    `what` (or what[r]) unless it is finite and its Jacobi scaling
    D^-1/2 M D^-1/2, D = diag(M), free of the units of Y and X, is positive
    definite with lambda_max <= _COND_LIMIT * lambda_min, else None: one stacked
    eigvalsh.  The scaling is congruent to M (a diagonal entry that is not
    positive stays unscaled).  Empty matrices (p = 0) have nothing to invert.

    One check per wide matrix serves every subset: each principal block of a
    symmetric positive-definite matrix is positive definite with a condition
    number no larger than the whole matrix's (Cauchy interlacing; Horn &
    Johnson, *Matrix Analysis*, 2nd ed., Thm 4.3.28), and the scaled matrix's
    blocks are the blocks' own scalings.  So the blocks I_S of the wide
    information, and M_S of its beta Schur complement, which has its own
    check, are factored unchecked by the risk kernel (fic._risk_terms)."""
    errors = [None] * len(M)
    if not M.size:
        return errors
    finite = np.isfinite(M).all(axis=(1, 2))
    M = M if finite.all() else np.where(finite[:, None, None], M, np.eye(M.shape[-1]))
    d = M.diagonal(0, 1, 2)
    s = np.sqrt(d, out=np.ones_like(d), where=d > 0)
    lam = np.linalg.eigvalsh(M / (s[:, :, None] * s[:, None, :]))
    for r, (ok, lo, hi) in enumerate(zip(finite.tolist(), lam[:, 0].tolist(),
                                         lam[:, -1].tolist())):
        name = what if isinstance(what, str) else what[r]
        if not ok:
            message = f"{name} has a non-finite entry"
        elif not lo > 0:
            message = f"{name} is not positive definite: smallest eigenvalue {lo:.3e}"
        elif hi > _COND_LIMIT * lo:
            message = f"{name} has condition number {hi / lo:.3e}"
        else:
            continue
        errors[r] = SingularInformationError(message)
    return errors


def _certify(M: np.ndarray, what: str) -> None:
    """Raise the error _certificates finds in the one matrix M, if any."""
    (error,) = _certificates(M[None], what)
    if error:
        raise error


def _size_groups(subsets, width: int, reps: int):
    """The subsets by size k ascending, in chunks of one size: (idx, cols), idx
    the positions of at most max(1, weights._CHUNK // (reps * width)) subsets and cols
    their (len(idx), k) sorted covariate indices, read from the masks.  A stage
    takes a chunk on all reps datasets at once, as (reps, len(idx), ...)
    blocks; width is what one subset of one dataset adds to its largest
    stacked temporary, so none holds more than weights._CHUNK elements, or one
    subset's across the batch when reps * width is larger."""
    masks = np.array([S.mask for S in subsets], dtype=np.int64)
    member = masks[:, None] >> np.arange(subsets[0].p if subsets else 0) & 1
    sizes = member.sum(1)
    step = max(1, weights._CHUNK // max(1, reps * width))
    for k in np.unique(sizes):
        same = np.flatnonzero(sizes == k)
        for i in range(0, same.size, step):
            idx = same[i:i + step]
            yield idx, np.nonzero(member[idx])[1].reshape(idx.size, k)


def _gather(M: np.ndarray, *index) -> np.ndarray:
    """M[r][index] for every dataset r of the stack M, as one (R, ...) array:
    the dataset axis is a leading fancy index broadcast against the others, so
    each stacked matrix of the result is contiguous, as that of one dataset."""
    r = np.arange(len(M)).reshape((-1,) + (1,) * max(np.ndim(i) for i in index))
    return M[(r,) + index]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes of a and b, one BLAS dot each, as a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


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
    iterations: int


@dataclass(frozen=True)
class Fits:
    """Fits of each dataset of a batch on each of m subsets, as (R, m) arrays
    over the R datasets: rho, sigma^2, the log-likelihood and the steps of the
    rho search, and beta as (R, m, p), zero outside each subset.  errors holds,
    per dataset, the first NumericalError of its fits, else of its information,
    or None.  info, when asked for, holds each dataset's (R, k + 2, k + 2)
    information at its fit on the last subset.  A dataset with an error keeps
    its place: NaN in every entry and the identity as its info, stand-ins on
    which later stages run the whole batch and whose results are never read."""

    subsets: tuple[SubmodelId, ...]
    rho: np.ndarray
    sigma2: np.ndarray
    beta: np.ndarray
    loglik: np.ndarray
    steps: np.ndarray
    errors: tuple
    info: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        """Steps of every rho search of the batch, as FitResult.iterations counts one fit's."""
        return int(self.steps.sum())

    def result(self, r: int, i: int) -> FitResult:
        """The FitResult, without information, of dataset r on subset i."""
        theta = Theta(float(self.rho[r, i]), float(self.sigma2[r, i]),
                      self.beta[r, i, list(self.subsets[i].indices())])
        return FitResult(theta, float(self.loglik[r, i]), None, self.subsets[i],
                         int(self.steps[r, i]))


def profile_beta(rho: float, data: Dataset, S: SubmodelId) -> np.ndarray:
    """Profiled MLE of beta_S at a given rho: regress (I - rho*W)Y on X_S.

    Computed as beta_R - rho*beta_L, the least-squares fits of Y and WY on the
    selected columns.
    """
    data.W.require_rho(rho)
    coef = _regressions(_project([data]), [S])[1][0, 0, list(S.indices())]
    return coef[:, 0] - rho * coef[:, 1]


def full_loglik(theta: Theta, data: Dataset, S: SubmodelId) -> float:
    """Gaussian log-likelihood of the spatial lag model at an arbitrary theta (fit_mle's oracle)."""
    n = data.n
    z = data.Y - theta.rho * data.WY
    Xs = data.X[:, S.indices()]
    resid = z - Xs @ theta.beta if Xs.shape[1] else z
    return (
        -(n / 2.0) * math.log(2.0 * math.pi * theta.sigma2)
        + data.W.log_det_factor(theta.rho)
        - float(resid @ resid) / (2.0 * theta.sigma2)
    )


def _project(batch):
    """One stacked thin QR X = QR of the batch's designs: R, z = Q'[Y, WY] and
    the residual Gram matrix of [Y, WY] on X, each with a leading dataset axis."""
    Z = np.stack([np.column_stack((d.Y, d.WY)) for d in batch])
    Q, R = np.linalg.qr(np.stack([d.X for d in batch]))
    z = np.swapaxes(Q, 1, 2) @ Z
    outside = Z - Q @ z
    return R, z, np.swapaxes(outside, 1, 2) @ outside


def _regressions(projection, subsets):
    """Regressions of Y and WY on X_S = Q R_S for every dataset of a projection
    and every subset: their residual is the residual on X plus Q times that of
    z on R_S, a p-row problem.  Per subset size k, one stacked R-only QR of
    [R_S | z] gives the triangle T: T[:k, :k] is the R factor of R_S, so it has
    the singular values of X_S, which interlace those of X that Dataset holds
    to the rank rule, and no X_S is checked again; the coefficients solve
    T[:k, :k] b = T[:k, k:] and the residual of z on R_S has the Gram matrix
    T[k:, k:]' T[k:, k:].  Householder QR is backward stable, as the SVD is
    (Golub & Van Loan, *Matrix Computations*, 5.3).  Returns the (R, m, 2, 2)
    residual Gram matrices [[a, b], [b, c]], the residual sum of squares of
    (I - rho*W)Y being a - 2*b*rho + c*rho^2, and the (R, m, p, 2)
    coefficients, zero outside each subset."""
    R, z, base = projection
    reps, p = R.shape[0], R.shape[-1]
    Rz = np.concatenate((R, z), axis=-1)  # columns p and p + 1 are z
    gram, coef = np.empty((reps, len(subsets), 2, 2)), np.zeros((reps, len(subsets), p, 2))
    for idx, cols in _size_groups(subsets, p * (p + 2), reps):
        k = cols.shape[1]
        ext = np.column_stack((cols, np.full((idx.size, 2), [p, p + 1])))
        T = np.linalg.qr(_gather(Rz, np.arange(p)[None, :, None], ext[:, None]), mode="r")
        t = T[..., k:, k:]
        gram[:, idx] = base[:, None] + np.swapaxes(t, -1, -2) @ t
        coef[:, idx[:, None], cols] = np.linalg.solve(T[..., :k, :k], T[..., :k, k:])
    return gram, coef


def _sigma2(gram: np.ndarray, rho, n: int) -> np.ndarray:
    """Profiled sigma^2 of each fit at its rho."""
    return (gram[:, 0, 0] - 2.0 * rho * gram[:, 0, 1] + rho * rho * gram[:, 1, 1]) / n


def _loglik(W: SpatialWeights, n: int, s2: np.ndarray, rho) -> np.ndarray:
    return -(n / 2.0) * (1.0 + _LOG_2PI + np.log(s2)) + W.log_det_factor(rho)


def _fit_error(stage: int, value: float, S: SubmodelId):
    """The error of a fit that failed at a stage of _rho_hat: 2 or 3 a search that
    did not converge or ended on a complex lower end (value its rho), otherwise a
    variance (value) below the floor."""
    if stage > 1:
        why = (f"did not converge in {_MAX_ITER} steps" if stage == 2 else
               f"ended at {value:.6g}, the lower end of the rho interval that complex eigenvalues set")
        return ConvergenceError(f"rho search for submodel {S.label()} {why}", best_rho=float(value))
    return DegenerateVarianceError(f"residual variance {value:.3e} below floor for submodel "
                                   f"{S.label()}")


def _rho_hat(W: SpatialWeights, n: int, gram: np.ndarray):
    """rho-hat of every fit and its steps: the maximizer of the profile likelihood
    over the admissible interval shrunk by 1e-6 of its range.  The best of _GRID
    even points of it (Pace & Barry 1997), from one log-det pass and in pieces of
    weights._CHUNK // _GRID fits, brackets every search by its two neighbours; a
    best end is rho-hat, after no step, unless the profile score -(n/2) q'/q -
    sum_i w_i / (1 - rho*w_i) points inward there, which only such fits read.
    Safeguarded Newton from the middle finds the score's root, bisecting when the
    curvature is not negative or a step leaves the bracket; each step takes the
    first two log-det derivatives of its fits from one spectrum pass.

    q is smallest at b/c, so a variance below the floor there (clipped to the
    bracket) is below it somewhere in the bracket: such a fit is degenerate and
    not searched.  Returns (rho, steps, s2, stage), s2 the profiled variance at
    rho and stage 0 for a fit found, 1 for a degenerate fit (a variance below
    the floor at b/c, rho NaN and s2 that variance, or at rho-hat), 2 for a
    search that did not converge in _MAX_ITER steps (rho its last iterate) and
    3 for rho-hat at the lower end when SpatialWeights.complex_lower_end."""
    lo, hi = W.rho_interval
    if not (np.isfinite(lo) and np.isfinite(hi)):  # unbounded (e.g. spectrum all zero): a box
        lo, hi = max(lo, -1e6), min(hi, 1e6)
    lo, hi = lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo)
    a, b, c = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    s2 = _sigma2(gram, np.clip(b / np.where(c > 0, c, 1.0), lo, hi), n)
    stage = (s2 < _SIGMA2_FLOOR).astype(np.int8)
    ok = np.flatnonzero(stage == 0)

    def score(rho, i):  # the score of the fits i at rho and its slope: one spectrum pass
        q, dq = a[i] - 2.0 * b[i] * rho + c[i] * rho * rho, 2.0 * (c[i] * rho - b[i])
        d1, d2 = W.log_det_rho_derivative(rho, (1, 2))
        return d1 - 0.5 * n * dq / q, d2 - 0.5 * n * (2.0 * c[i] * q - dq * dq) / (q * q)

    grid = np.linspace(hi, lo, _GRID)  # descending: a tie takes the larger rho
    log_det, k, step = W.log_det_factor(grid), np.empty_like(ok), max(1, weights._CHUNK // _GRID)
    for j in range(0, ok.size, step):
        i = ok[j:j + step, None]
        t = c[i] * grid  # q = (c*rho - 2b)*rho + a, then the profile likelihood, in place
        np.add(np.multiply(np.subtract(t, 2.0 * b[i], out=t), grid, out=t), a[i], out=t)
        np.multiply(0.5 * n, np.log(t, out=t), out=t)
        k[j:j + step] = np.argmax(np.subtract(log_det, t, out=t), axis=1)
    top, bottom, search = k == 0, k == _GRID - 1, np.ones(ok.size, dtype=bool)
    search[top], search[bottom] = score(hi, ok[top])[0] < 0, score(lo, ok[bottom])[0] > 0
    rho, steps = np.full(len(a), np.nan), np.zeros(len(a), dtype=int)
    rho[ok], cell = grid[k], k[search]
    active, L, H = ok[search], grid[np.minimum(cell + 1, _GRID - 1)], grid[np.maximum(cell - 1, 0)]
    x = 0.5 * (L + H)
    for _ in range(_MAX_ITER):
        if not active.size:
            break
        steps[active] += 1
        s, ds = score(x, active)
        L, H = np.where(s > 0, x, L), np.where(s < 0, x, H)
        newton = x - s / ds
        nxt = np.where((ds < 0) & (L <= newton) & (newton <= H), newton, 0.5 * (L + H))
        rho[active] = np.where(s == 0, x, nxt)
        going = (s != 0) & (np.abs(nxt - x) > _RHO_TOL * (hi - lo))
        active, x, L, H = active[going], nxt[going], L[going], H[going]
    stage[active] = 2
    s2[ok] = _sigma2(gram[ok], rho[ok], n)
    stage[(stage == 0) & (s2 < _SIGMA2_FLOOR)] = 1
    stage[(stage == 0) & (rho == lo) & W.complex_lower_end] = 3
    return rho, steps, s2, stage


def _fit_batch(batch, subsets, with_info: bool) -> Fits:
    """fit_mle's batch form: the Fits of each dataset of a batch (datasets that
    share one SpatialWeights and p) on every subset, in order.  One stacked QR
    of the designs serves every regression (_regressions) and one vectorised
    search every rho (_rho_hat; its steps are Fits.steps), on all R * m fits
    at once, as is the log-likelihood; each fit is the same, bit for bit, in
    any batch or piece of the spectrum pass.  With with_info, each
    dataset's information at its last fit (_information), certified by one stacked check.

    A failure gives its dataset an error and leaves the other datasets alone:
    DegenerateVarianceError for a residual variance below the floor in the
    bracket or at rho-hat, ConvergenceError for a search that does not
    converge in _MAX_ITER steps, and the certificate's SingularInformationError.
    A dataset keeps the error of its first failing fit in subset order, else
    that of its information.  The information runs on the whole batch: a
    failed fit's NaN rho enters it as 0, inside every admissible interval, and
    the information of a dataset with an error is replaced by the identity."""
    batch, subsets = list(batch), tuple(subsets)
    W, n, p = batch[0].W, batch[0].n, batch[0].p
    if any(d.W is not W or d.p != p for d in batch):
        raise ValueError("the datasets of a batch must share one SpatialWeights and p")
    reps, m = len(batch), len(subsets)
    gram, coef = _regressions(_project(batch), subsets)
    rho, steps, s2, stage = _rho_hat(W, n, gram.reshape(reps * m, 2, 2))
    ll, fine = np.full(reps * m, np.nan), stage == 0
    ll[fine] = _loglik(W, n, s2[fine], rho[fine])
    rho, s2, ll, steps, stage = (a.reshape(reps, m) for a in (rho, s2, ll, steps, stage))
    beta = coef[..., 0] - rho[..., None] * coef[..., 1]
    errors = [None] * reps
    for r in np.flatnonzero(stage.any(axis=1)):
        i = np.flatnonzero(stage[r])[0]
        errors[r] = _fit_error(stage[r, i], rho[r, i] if stage[r, i] > 1 else s2[r, i],
                               subsets[i])
        for a in (rho, s2, ll, beta):
            a[r] = np.nan
    fits = Fits(subsets, rho, s2, beta, ll, steps, tuple(errors))
    if not with_info:
        return fits
    last = subsets[-1]
    cols = [0, 1, *(2 + j for j in last.indices())]
    full = _information(batch, np.nan_to_num(rho[:, -1:]), s2[:, -1:], beta[:, -1:])
    info = full[:, 0, cols][..., cols]
    certs = _certificates(info, f"information of {last.label()}")
    errors = [error or cert for error, cert in zip(errors, certs)]
    info[[e is not None for e in errors]] = np.eye(len(cols))
    return replace(fits, errors=tuple(errors), info=info)


def fit_mle(data: Dataset | list[Dataset], S: SubmodelId | list,
            with_info: bool = True) -> FitResult | Fits:
    """Fit the spatial lag model restricted to submodel S by maximum likelihood,
    plus the certified observed information (observed_info) when with_info:
    the FitResult, or the first error raised.

    Given a batch instead, a list of datasets that share one SpatialWeights and
    p, and for S a list of subsets, the Fits of every dataset on every subset,
    from one search, with each dataset's information at its fit on the last
    subset when with_info; a failure stops its dataset only (_fit_batch).  The
    one-dataset form is this batch of one."""
    if not isinstance(data, Dataset):
        return _fit_batch(data, S, with_info)
    fits = _fit_batch([data], [S], with_info)
    if fits.errors[0]:
        raise fits.errors[0]
    fit = fits.result(0, 0)
    return replace(fit, info=FisherInfo(fits.info[0], data.n)) if with_info else fit


def _information(batch, rho: np.ndarray, sigma2: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The information -H/n (observed_info) of each dataset of a batch at each
    fit, (R, m, p + 2, p + 2), for (R, m) rho and sigma2 and the (R, m, p)
    beta, zero outside each fit's subset S: its (rho, sigma^2, beta_S) block
    is the information of S.  Its largest arrays are the (R, m, n) residual
    and the result, so its caller bounds its memory by the fits it passes
    (the max_eigen focus, one size-group chunk at a time).  The sum
    of g_i^2 in H_rr is SpatialWeights.log_det_rho_derivative's, which checks
    rho and bounds its own pass.  Each product is a stacked matmul, the BLAS
    call of the product on one fit, and powers are libm's, as of a Python
    float, so each matrix is the same, bit for bit, in any batch."""
    W, n, p = batch[0].W, batch[0].n, batch[0].p
    Y, WY = (np.stack([getattr(d, a) for d in batch])[:, None] for a in ("Y", "WY"))
    Xt = np.ascontiguousarray(np.swapaxes(np.stack([d.X for d in batch]), 1, 2))[:, None]
    X = np.swapaxes(Xt, -1, -2)  # column-major, as the column selection X[:, S] of one fit
    c, c2, c3 = sigma2, np.float_power(sigma2, 2), np.float_power(sigma2, 3)
    e = Y - rho[..., None] * WY - (X @ beta[..., None])[..., 0]
    H = np.empty(c.shape + (p + 2, p + 2))
    H[..., 0, 0] = W.log_det_rho_derivative(rho, 2) - _dot(WY, WY) / c
    H[..., 0, 1] = H[..., 1, 0] = -_dot(WY, e) / c2
    H[..., 1, 1] = n / (2.0 * c2) - _dot(e, e) / c3
    H[..., 0, 2:] = H[..., 2:, 0] = -(Xt @ WY[..., None])[..., 0] / c[..., None]
    H[..., 1, 2:] = H[..., 2:, 1] = -(Xt @ e[..., None])[..., 0] / c2[..., None]
    H[..., 2:, 2:] = -(Xt @ X) / c[..., None, None]
    return -(0.5 * (H + np.swapaxes(H, -1, -2))) / n


def observed_info(theta_hat: Theta, data: Dataset, S: SubmodelId) -> FisherInfo:
    """Per-observation observed information -H/n at theta_hat.

    H is the Hessian of the full log-likelihood over (rho, sigma^2, beta_S) in
    closed form (Anselin 1988; Lee 2004), with s2 = sigma^2, e the residual
    Y - rho*WY - X_S beta and g_i = w_i / (1 - rho*w_i) over the spectrum of W:
    H_rr = -sum g_i^2 - WY'WY / s2, H_rs = -WY'e / s2^2,
    H_ss = n / (2 s2^2) - e'e / s2^3, H_rb = -X_S'WY / s2,
    H_sb = -X_S'e / s2^2, H_bb = -X_S'X_S / s2: _information's one-fit case,
    certified (_certify): one not positive definite or well conditioned raises.
    """
    cols, beta = [0, 1, *(2 + j for j in S.indices())], np.zeros((1, 1, S.p))
    beta[0, 0, list(S.indices())] = theta_hat.beta
    full = _information([data], np.array([[theta_hat.rho]]), np.array([[theta_hat.sigma2]]), beta)
    I_hat = full[0, 0][np.ix_(cols, cols)]
    _certify(I_hat, f"information of {S.label()}")
    return FisherInfo(matrix=I_hat, n_obs=data.n)

