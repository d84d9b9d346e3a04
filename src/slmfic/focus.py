"""Focus functions and their Jacobians with respect to theta_S = (rho, sigma^2, beta_S).

Four focus kinds are supported:

``conditional_mean``
    The linear predictor rho*(WY)_i + x_i' beta at a chosen unit i.
``max_eigen``
    The largest eigenvalue of the inverse estimated information, a summary of
    estimator variability.  Its Jacobian is eigenvalue perturbation through the
    third derivatives of the log-likelihood, in closed form in the eigenpair.
``beta_coeffs``
    The regression coefficients themselves (optionally a subset).
``spillover``
    The vector (log|I - rho*W|, sigma^2, beta) combining the spatial spillover
    term with the remaining model parameters.

Coefficients absent from the submodel S are treated as fixed at zero, both in
the focus value and in its Jacobian, so the focus dimension k does not depend
on S and wide-model centering is well defined.  eval_focus_batch evaluates a
focus at every fit of a batch at once; eval_focus is its one-fit case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FocusSpecError, StencilError
from .slm import Dataset, Theta, _certificates, _dot, _gather, _information, _size_groups
from .submodels import SubmodelId

_EPS_THIRD = np.finfo(float).eps ** (1.0 / 3.0)
_EIGEN_GAP_TOL = 1e-8
GAP_WARNING = "top eigenvalue nearly repeated; max_eigen focus Jacobian is unreliable"

FOCUS_KINDS = ("conditional_mean", "max_eigen", "beta_coeffs", "spillover")


@dataclass(frozen=True)
class FocusSpec:
    kind: str
    location: int | None = None
    coeff_subset: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in FOCUS_KINDS:
            raise FocusSpecError(f"unknown focus kind {self.kind!r}")
        if self.kind == "conditional_mean" and self.location is None:
            raise FocusSpecError("conditional_mean focus requires a location index")
        if self.coeff_subset is not None:
            subset = tuple(self.coeff_subset)
            if any(j < 0 for j in subset):
                raise FocusSpecError(f"coeff_subset {list(subset)} has a negative index")
            object.__setattr__(self, "coeff_subset", subset or None)  # () selects every coefficient


@dataclass(frozen=True)
class FocusEval:
    value: np.ndarray
    jacobian: np.ndarray  # k x (|S| + 2), columns ordered (rho, sigma^2, beta_S)


def jacobian_fd(f, theta: Theta, lower=None, upper=None) -> np.ndarray:
    """Central-difference Jacobian of f over the stacked vector (rho, sigma^2, beta).

    Not used in production: every focus Jacobian is a closed form, and this is
    the test oracle they are checked against.  Steps follow the
    cube-root-of-epsilon rule per coordinate; optional bounds shrink the
    stencil to stay in the domain.
    """
    v = theta.to_vector()
    m = len(v)
    h = _EPS_THIRD * np.maximum(1.0, np.abs(v))
    if lower is not None:
        gap = 0.49 * (v - np.asarray(lower, dtype=float))
        h = np.where(np.isfinite(gap), np.minimum(h, gap), h)
    if upper is not None:
        gap = 0.49 * (np.asarray(upper, dtype=float) - v)
        h = np.where(np.isfinite(gap), np.minimum(h, gap), h)
    h[1] = min(h[1], 0.49 * v[1])  # sigma2 stays positive
    cols = []
    for j in range(m):
        e = np.zeros(m)
        e[j] = h[j]
        fp = np.atleast_1d(np.asarray(f(Theta.from_vector(v + e)), dtype=float))
        fm = np.atleast_1d(np.asarray(f(Theta.from_vector(v - e)), dtype=float))
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise StencilError(f"non-finite focus evaluation at coordinate {j}")
        cols.append((fp - fm) / (2.0 * h[j]))
    return np.column_stack(cols)


def depends_on_theta(spec: FocusSpec) -> bool:
    """Whether the focus Jacobian varies with theta_S: spillover reads the log-det
    derivative at rho_S, max_eigen the information at theta_S."""
    return spec.kind in ("spillover", "max_eigen")


def eval_focus_batch(spec: FocusSpec, batch, subsets, rho: np.ndarray, sigma2: np.ndarray,
                     beta: np.ndarray):
    """The focus at every fit of a batch (datasets on one W and p): rho and
    sigma2 are (R, m) over the datasets and the m subsets, beta (R, m, p),
    zero outside each subset.  Returns the (R, m, d) values; the read-only
    (R, m, d, p + 2) Jacobians, each subset's in its (rho, sigma^2, beta_S)
    columns, the only ones fic_terms reads; the mask of max_eigen fits
    whose top eigenvalue is nearly repeated (the Jacobian is unreliable
    there); and per dataset the first NumericalError of its fits in subset
    order, or None.

    max_eigen: lambda = 1/mu, mu the smallest eigenvalue of I = -H/n with unit
    eigenvector u, and d(lambda) = (lambda^2 / n) d(u'Hu) with u held fixed
    (Magnus 1985).  H depends on theta through the residual, s2 = sigma^2 and
    g_i = w_i / (1 - rho*w_i), with dg_i/drho = g_i^2, so each third
    derivative of the log-likelihood (Lee 2004) is an entry of H over s2 or a
    sum of g^2 or g^3.  As Hu = -(n / lambda) u, with G2 = sum g_i^2, G3 =
    sum g_i^3 (both from one pass over the spectrum for every fit) and
    c = lambda^2 / n the contraction is
        d/drho    = 2 lambda u_r u_s / s2 - 2 c u_r (u_s G2 / s2 + u_r G3),
        d/ds2     = lambda (1 + 2 u_s^2) / s2 - c u_r^2 G2 / s2 + c n u_s^2 / (2 s2^3),
        d/dbeta_S = 2 lambda u_s u_beta / s2.
    Per chunk of same-size subsets (slm._size_groups, each subset of each
    dataset a width of max(n, (p + 2)^2): its residual or its information),
    slm._information builds the chunk's fits' information only, and one
    stacked certificate and eigh of the (R, s) blocks I_S give mu and u, so
    no stage holds every fit's information; spillover's tiled identity is
    the one (R, m, p + 2, p + 2) array left."""
    W, n, p = batch[0].W, batch[0].n, batch[0].p
    reps, m = rho.shape
    gap, failed = np.zeros((reps, m), dtype=bool), np.full((reps, m), None)
    if spec.kind == "conditional_mean":
        i = spec.location
        if not 0 <= i < n:
            raise FocusSpecError(f"location {i} out of range for n={n}")
        wy_i, x_i = np.array([d.WY[i] for d in batch]), np.stack([d.X[i] for d in batch])
        value = (rho * wy_i[:, None] + _dot(beta, x_i[:, None]))[..., None]
        jac = np.column_stack((wy_i, np.zeros(reps), x_i))[:, None, None]
    elif spec.kind == "beta_coeffs":
        subset = np.array(spec.coeff_subset or range(p), dtype=int)
        if np.any(subset >= p):
            raise FocusSpecError(f"coeff_subset {subset.tolist()} out of range for p={p}")
        value, jac = beta[..., subset], np.eye(p + 2)[subset + 2]
    elif spec.kind == "spillover":
        value = np.concatenate((W.log_det_factor(rho)[..., None], sigma2[..., None], beta), axis=-1)
        jac = np.tile(np.eye(p + 2), (reps, m, 1, 1))
        jac[..., 0, 0] = W.log_det_rho_derivative(rho)
    else:
        G2, G3 = (-d for d in W.log_det_rho_derivative(rho, (2, 3)))
        value, jac = np.full((reps, m, 1), np.nan), np.zeros((reps, m, 1, p + 2))
        for idx, cols in _size_groups(subsets, max(n, (p + 2) ** 2), reps):
            ii = np.column_stack((np.zeros_like(idx), np.ones_like(idx), cols + 2))
            info = _information(batch, rho[:, idx], sigma2[:, idx], beta[:, idx])
            I_S = _gather(info, np.arange(idx.size)[:, None, None], ii[:, :, None], ii[:, None])
            names = [f"information of {subsets[i].label()}" for i in idx] * reps
            certs = _certificates(I_S.reshape((-1,) + I_S.shape[2:]), names)
            failed[:, idx] = np.reshape(certs, (reps, idx.size))
            I_S[failed[:, idx].astype(bool)] = np.eye(ii.shape[1])
            mu, vecs = np.linalg.eigh(I_S)
            lam, u = 1.0 / mu[..., 0], vecs[..., 0]
            gap[:, idx] = lam - 1.0 / mu[..., 1] < _EIGEN_GAP_TOL
            ur, us, s2, c = u[..., 0], u[..., 1], sigma2[:, idx], lam * lam / n
            g2, g3 = G2[:, idx], G3[:, idx]
            value[:, idx, 0] = lam
            jac[:, idx, 0, 0] = 2.0 * lam * ur * us / s2 - 2.0 * c * ur * (us * g2 / s2 + ur * g3)
            jac[:, idx, 0, 1] = (lam * (1.0 + 2.0 * us * us) / s2 - c * ur * ur * g2 / s2
                                 + c * n * us * us / (2.0 * s2 * s2 * s2))
            jac[:, idx[:, None], 0, cols + 2] = (2.0 * lam * us / s2)[..., None] * u[..., 2:]
    errors = [next(filter(None, row), None) for row in failed.tolist()]
    return value, np.broadcast_to(jac, value.shape + (p + 2,)), gap, errors


def eval_focus(spec: FocusSpec, theta: Theta, data: Dataset, S: SubmodelId) -> FocusEval:
    """A focus and its Jacobian over (rho, sigma^2, beta_S) at theta under S:
    eval_focus_batch's one-fit case, whose error it raises; a nearly repeated
    top eigenvalue is flagged by eval_focus_batch only."""
    cols, beta = [0, 1, *(2 + j for j in S.indices())], np.zeros((1, 1, S.p))
    beta[0, 0, list(S.indices())] = theta.beta
    value, jac, _, (error,) = eval_focus_batch(
        spec, [data], [S], np.array([[theta.rho]]), np.array([[theta.sigma2]]), beta)
    if error:
        raise error
    return FocusEval(value[0, 0], jac[0, 0][:, cols])


def wide_beta_jacobian(spec: FocusSpec, theta_wide: Theta, data: Dataset) -> np.ndarray:
    """k x p Jacobian of the focus in the full beta at the wide fit, the other
    coordinates held fixed: the centering term of the FIC bias."""
    return eval_focus(spec, theta_wide, data, SubmodelId.wide(data.p)).jacobian[:, 2:]
