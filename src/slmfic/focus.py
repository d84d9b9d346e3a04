"""Focus functions and their Jacobians with respect to theta_S = (rho, sigma^2, beta_S).

Four focus kinds are supported:

``conditional_mean``
    The linear predictor rho*(WY)_i + x_i' beta at a chosen unit i.
``max_eigen``
    The largest eigenvalue of the inverse estimated information, a summary of
    estimator variability.  Its Jacobian is eigenvalue perturbation through the
    closed-form third derivatives of the log-likelihood.
``beta_coeffs``
    The regression coefficients themselves (optionally a subset).
``spillover``
    The vector (log|I - rho*W|, sigma^2, beta) combining the spatial spillover
    term with the remaining model parameters.

Coefficients absent from the submodel S are treated as fixed at zero, both in
the focus value and in its Jacobian, so the focus dimension k does not depend
on S and wide-model centering is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FocusSpecError, StencilError
from .slm import Dataset, FisherInfo, Theta, _derivative_terms, observed_info
from .submodels import SubmodelId

_EPS_THIRD = np.finfo(float).eps ** (1.0 / 3.0)
_EIGEN_GAP_TOL = 1e-8

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
    warnings: tuple[str, ...] = field(default_factory=tuple)


def _embed_beta(theta: Theta, S: SubmodelId) -> np.ndarray:
    """Full p-vector with theta.beta in the S positions and zeros elsewhere."""
    beta = np.zeros(S.p)
    beta[list(S.indices())] = theta.beta
    return beta


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


def eval_focus(
    spec: FocusSpec,
    theta: Theta,
    data: Dataset,
    S: SubmodelId,
    info: FisherInfo | None = None,
) -> FocusEval:
    """Evaluate a focus function and its Jacobian at theta under submodel S."""
    m = len(S) + 2
    sel = list(S.indices())

    if spec.kind == "conditional_mean":
        i = spec.location
        if not 0 <= i < data.n:
            raise FocusSpecError(f"location {i} out of range for n={data.n}")
        wy_i = float(data.WY[i])
        x_iS = data.X[i, sel]
        value = np.array([theta.rho * wy_i + float(x_iS @ theta.beta)])
        jac = np.concatenate(([wy_i, 0.0], x_iS))[None, :]
        return FocusEval(value, jac)

    if spec.kind == "beta_coeffs":
        subset = spec.coeff_subset if spec.coeff_subset is not None else tuple(range(S.p))
        if any(j >= S.p for j in subset):
            raise FocusSpecError(f"coeff_subset {list(subset)} out of range for p={S.p}")
        beta_full = _embed_beta(theta, S)
        value = beta_full[list(subset)]
        jac = np.zeros((len(subset), m))
        pos = {j: 2 + r for r, j in enumerate(sel)}
        for row, j in enumerate(subset):
            if j in pos:
                jac[row, pos[j]] = 1.0
        return FocusEval(value, jac)

    if spec.kind == "spillover":
        beta_full = _embed_beta(theta, S)
        value = np.concatenate(
            ([data.W.log_det_factor(theta.rho), theta.sigma2], beta_full)
        )
        jac = np.zeros((S.p + 2, m))
        jac[0, 0] = data.W.log_det_rho_derivative(theta.rho)
        jac[1, 1] = 1.0
        for r, j in enumerate(sel):
            jac[2 + j, 2 + r] = 1.0
        return FocusEval(value, jac)

    # max_eigen: lambda = 1/mu, mu the smallest eigenvalue of I = -H/n with unit
    # eigenvector u.  For a simple eigenvalue d(lambda) = (lambda^2 / n) d(u'Hu) with
    # u held fixed (Magnus 1985); the gradient of u'Hu contracts the third derivatives
    # of the log-likelihood (Lee 2004) twice with u.
    if info is None:
        info = observed_info(theta, data, S)
    eigs, vecs = np.linalg.eigh(np.linalg.inv(info.matrix))
    lam, (ur, us), ub = eigs[-1], vecs[:2, -1], vecs[2:, -1]
    warnings: tuple[str, ...] = ()
    if len(eigs) > 1 and eigs[-1] - eigs[-2] < _EIGEN_GAP_TOL:
        warnings = (
            "top eigenvalue nearly repeated; max_eigen focus Jacobian is unreliable",
        )
    WY, Xs, e, g = _derivative_terms(theta, data, S)
    s2 = theta.sigma2
    a = ur * WY + Xs @ ub
    t = (2.0 * us / s2**2) * a + (2.0 * us**2 / s2**3) * e
    d_s2 = (a @ a) / s2**2 + 4.0 * us * (a @ e) / s2**3
    d_s2 += us**2 * (3.0 * (e @ e) / s2**4 - data.n / s2**3)
    grad = np.concatenate(([WY @ t - 2.0 * ur**2 * (g**3).sum(), d_s2], Xs.T @ t))
    return FocusEval(np.array([lam]), (lam**2 / data.n) * grad[None, :], warnings)


def wide_beta_jacobian(
    spec: FocusSpec,
    theta_wide: Theta,
    data: Dataset,
    info_wide: FisherInfo | None = None,
) -> np.ndarray:
    """k x p Jacobian of the focus with respect to the full beta at the wide fit.

    This is the centering term of the FIC bias: the beta columns of the wide
    model Jacobian, the other coordinates held fixed.
    """
    wide = SubmodelId.wide(data.p)
    ev = eval_focus(spec, theta_wide, data, wide, info=info_wide)
    return ev.jacobian[:, 2:]
