import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.spatial.distance import cdist

from slmfic import Dataset, SpatialWeights, Theta, build_chain_lag1
from slmfic.focus import jacobian_fd
from slmfic.slm import full_loglik


def random_symmetric_adjacency(rng, n, density=0.4):
    """Random connected-ish symmetric 0/1 adjacency with zero diagonal."""
    A = (rng.random((n, n)) < density).astype(float)
    A = np.triu(A, k=1)
    # guarantee no isolated unit by chaining
    for i in range(n - 1):
        A[i, i + 1] = 1.0
    return A + A.T


def knn_adjacency(rng, n, k=4):
    """Binary k-nearest-neighbour adjacency of n uniform random points in the
    unit square: row i marks the k points nearest to point i (all others when
    n <= k), so A is not symmetric and the row-normalized W has complex
    eigenvalues."""
    k = min(k, n - 1)
    points = rng.random((n, 2))
    d = cdist(points, points)
    np.fill_diagonal(d, np.inf)
    A = np.zeros((n, n))
    A[np.repeat(np.arange(n), k), np.argsort(d, axis=1)[:, :k].ravel()] = 1.0
    return A


def directed_cycles(rng, n):
    """n // 3 disjoint directed 3-cycles (rng unused): spectrum {1, -1/2 +- i sqrt(3)/2},
    each n // 3 times, and rho interval (-2, 1) unnormalized."""
    return np.kron(np.eye(n // 3), np.roll(np.eye(3), 1, axis=1))


def rook_adjacency(rng, n):
    """Binary rook contiguity of a square lattice of n units, n a square (rng unused)."""
    side = math.isqrt(n)
    path, eye = build_chain_lag1(side).toarray(), np.eye(side)
    return np.kron(eye, path) + np.kron(path, eye)


# graphs whose weights are not symmetric, by name
ASYMMETRIC = {"knn": knn_adjacency, "cycles": directed_cycles}


def random_dataset(rng, n=30, p=3, rho=0.3, beta=None, sigma2=1.0, row_normalize=True,
                   adjacency=random_symmetric_adjacency):
    A = adjacency(rng, n)
    W = SpatialWeights.from_adjacency(A, row_normalize=row_normalize)
    if beta is None:
        beta = rng.normal(size=p)
    X = rng.standard_normal((n, p))
    eps = np.sqrt(sigma2) * rng.standard_normal(n)
    Y = np.linalg.solve(np.eye(n) - rho * W.matrix.toarray(), X @ beta + eps)
    return Dataset(Y=Y, X=X, W=W)


_ORACLE_GRID = 201


def closed_form_information(rho, s2, beta, X, Y, WY, w):
    """Observed information per observation, -H / n, of the spatial lag model
    over (rho, sigma2, beta) at an arbitrary point, with numpy alone.

    X holds the submodel's columns, w the eigenvalues of W and e the residual
    Y - rho WY - X beta (Lee 2004, Econometrica 72(6)):
    H_rr = -sum w_i^2 / (1 - rho w_i)^2 - (WY)'WY / sigma2,
    H_rs = -(WY)'e / sigma2^2, H_ss = n / (2 sigma2^2) - e'e / sigma2^3,
    H_rb = -X'WY / sigma2, H_sb = -X'e / sigma2^2, H_bb = -X'X / sigma2.
    """
    n, k = X.shape
    e = Y - rho * WY - X @ beta
    H = np.empty((k + 2, k + 2))
    H[0, 0] = -np.sum(w**2 / (1.0 - rho * w) ** 2) - (WY @ WY) / s2
    H[0, 1] = H[1, 0] = -(WY @ e) / s2**2
    H[1, 1] = n / (2.0 * s2**2) - (e @ e) / s2**3
    H[0, 2:] = H[2:, 0] = -(X.T @ WY) / s2
    H[1, 2:] = H[2:, 1] = -(X.T @ e) / s2**2
    H[2:, 2:] = -(X.T @ X) / s2
    return -H / n


def fd_information(theta, data, S):
    """Observed information per observation, -H / n, with H the central
    finite-difference Hessian of slmfic's full log-likelihood.

    Steps are eps^(1/4) per coordinate, scaled by max(1, |theta_j|) and shrunk
    to stay inside the rho interval and to keep sigma2 positive: a second
    difference has truncation error O(h^2) and rounding error O(eps / h^2),
    which this step balances.
    """
    v = theta.to_vector()
    m = len(v)
    h = np.finfo(float).eps ** 0.25 * np.maximum(1.0, np.abs(v))
    lo, hi = data.W.rho_interval
    h[0] = min(h[0], 0.49 * (v[0] - lo), 0.49 * (hi - v[0]))
    h[1] = min(h[1], 0.49 * v[1])

    def f(vec):
        return full_loglik(Theta.from_vector(vec), data, S)

    H = np.empty((m, m))
    f0 = f(v)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h[i]
        H[i, i] = (f(v + ei) - 2.0 * f0 + f(v - ei)) / (h[i] * h[i])
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                f(v + ei + ej) - f(v + ei - ej) - f(v - ei + ej) + f(v - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return -H / data.n


def score_fd(theta, data, S):
    """The score of full_loglik over (rho, sigma2, beta_S) at theta: the
    central differences of jacobian_fd, the rho stencil kept inside the
    admissible interval."""
    lo, hi = data.W.rho_interval
    k = len(S) + 1
    return jacobian_fd(lambda th: full_loglik(th, data, S), theta,
                       lower=[lo] + [-np.inf] * k, upper=[hi] + [np.inf] * k)[0]


def brent_profile_fit(Xs, Y, WY, w, lo, hi):
    """Maximum-likelihood fit of the spatial lag model on the columns Xs, with
    numpy and scipy alone: (rho, sigma2, beta, loglik).

    w holds the eigenvalues of W.  The concentrated log-likelihood is
    -n/2 (1 + log 2 pi + log(e'e / n)) + Re sum_i log(1 - rho w_i), with e the
    least-squares residual of (I - rho W) Y on Xs.  It is maximized over
    [lo, hi] by a grid search over _ORACLE_GRID points refined with a bounded
    scalar search (Brent) between the grid neighbours of the best point.
    """
    n = len(Y)
    if Xs.shape[1]:
        coef = np.linalg.lstsq(Xs, np.column_stack([Y, WY]), rcond=None)[0]
        e_R, e_L = Y - Xs @ coef[:, 0], WY - Xs @ coef[:, 1]
    else:
        coef, e_R, e_L = np.zeros((0, 2)), Y, WY
    a, b, c = e_R @ e_R, e_R @ e_L, e_L @ e_L
    const = -n / 2.0 * (1.0 + math.log(2.0 * math.pi))

    def loglik(rho, log_det):
        return const - n / 2.0 * np.log((a - 2.0 * b * rho + c * rho * rho) / n) + log_det

    grid = np.linspace(lo, hi, _ORACLE_GRID)
    step = grid[1] - grid[0]
    k = int(np.argmax(loglik(grid, np.log1p(-np.outer(grid, w)).sum(axis=1).real)))
    res = minimize_scalar(
        lambda r: -loglik(r, np.log1p(-r * w).sum().real),
        bounds=(max(grid[k] - step, lo), min(grid[k] + step, hi)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    rho = float(res.x)
    e = e_R - rho * e_L
    return rho, float(e @ e) / n, coef[:, 0] - rho * coef[:, 1], -float(res.fun)


def oracle_top1_counts(cfg):
    """Top-1 counts of AIC and uniform-weight sAFIC over the replications of a
    chain-graph study, computed with numpy and scipy alone.

    Only the fields of ``cfg`` (a ``SimConfig`` with ``weights_kind="chain"``
    and ``row_normalize=True``) are read; no slmfic computation is called.
    Returns ``{"AIC": {mask: count}, "sAFIC1": {mask: count}}``, the names the
    default study gives these two criteria.

    Replication ``rep`` is redrawn from ``default_rng([cfg.seed, rep])`` in the
    order the study draws it: X (n x p) iid N(0, 1), then eps ~ N(0, sigma2),
    then Y solving (I - rho W) Y = X beta + eps.  W is the lag-1 chain
    adjacency A divided by its row sums D; its eigenvalues w_i come from the
    symmetric D^-1/2 A D^-1/2, and rho ranges over (1/w_min, 1/w_max) within
    (-1, 1).

    Every subset S is fitted by maximum likelihood over the rho interval shrunk
    by 1e-6 of its width (``brent_profile_fit``).  AIC = -2 loglik + 2 (|S| + 2).

    sAFIC uses only the wide fit (rho, sigma2, beta):

    - closed-form observed information per observation
      (``closed_form_information``);
    - sigma2 deleted, Q = (I_bb - I_br I_rb / I_rr)^-1;
    - omega_i = I_br / I_rr (WY)_i - x_i, delta = sqrt(n) beta;
    - G_S = Pi_S' (Pi_S Q^-1 Pi_S')^-1 Pi_S Q^-1, G = 0 for the empty subset;
    - score_S = mean_i (omega_i' (I - G_S) delta)^2 + omega_i' G_S Q G_S' omega_i,
      the unit average of the pointwise risk without the shared rho term.
      The trace formula of ``slmfic.safic``, tr((I - G) delta delta' (I - G)' K)
      + tr(G Q G' K) with K = mean_i omega_i omega_i', is its closed form.

    Each criterion ranks by score; ties go to the smaller subset, then the
    smaller mask.
    """
    if cfg.weights_kind != "chain" or not cfg.row_normalize:
        raise ValueError("the oracle covers row-normalized chain-graph studies only")
    n, p = cfg.n, cfg.p
    A = np.zeros((n, n))
    i = np.arange(n - 1)
    A[i, i + 1] = A[i + 1, i] = 1.0
    deg = A.sum(axis=1)
    W = A / deg[:, None]
    s = 1.0 / np.sqrt(deg)
    w = np.linalg.eigvalsh(s[:, None] * A * s[None, :])
    lo, hi = max(1.0 / w[0], -1.0), min(1.0 / w[-1], 1.0)
    margin = 1e-6 * (hi - lo)
    lo, hi = lo + margin, hi - margin
    beta_true = np.asarray(cfg.beta_true, dtype=float)
    subsets = [[j for j in range(p) if mask >> j & 1] for mask in range(1 << p)]

    def fit(Xs, Y, WY):
        return brent_profile_fit(Xs, Y, WY, w, lo, hi)

    def top1(scores):
        return min(range(1 << p), key=lambda m: (scores[m], len(subsets[m]), m))

    counts = {"AIC": {}, "sAFIC1": {}}
    for rep in range(cfg.reps):
        rng = np.random.default_rng([cfg.seed, rep])
        X = rng.standard_normal((n, p))
        eps = math.sqrt(cfg.sigma2_true) * rng.standard_normal(n)
        Y = np.linalg.solve(np.eye(n) - cfg.rho_true * W, X @ beta_true + eps)
        WY = W @ Y

        aic = [-2.0 * fit(X[:, cols], Y, WY)[3] + 2.0 * (len(cols) + 2) for cols in subsets]

        rho, s2, beta, _ = fit(X, Y, WY)
        info = closed_form_information(rho, s2, beta, X, Y, WY, w)
        I_rr, I_br, I_bb = info[0, 0], info[2:, 0], info[2:, 2:]
        Q_inv = I_bb - np.outer(I_br, I_br) / I_rr
        Q = np.linalg.inv(Q_inv)
        omega = np.outer(WY, I_br / I_rr) - X
        delta = math.sqrt(n) * beta
        safic = []
        for cols in subsets:
            G = np.zeros((p, p))
            if cols:
                G[cols, :] = np.linalg.solve(Q_inv[np.ix_(cols, cols)], Q_inv[cols, :])
            bias = omega @ (np.eye(p) - G) @ delta
            OG = omega @ G
            safic.append(float(np.mean(bias**2) + np.mean(np.sum((OG @ Q) * OG, axis=1))))

        for name, scores in (("AIC", aic), ("sAFIC1", safic)):
            mask = top1(scores)
            counts[name][mask] = counts[name].get(mask, 0) + 1
    return counts


def fit_each(data, subsets):
    """fit_mle's batch form on the one dataset data, without information, its
    error raised: {mask: FitResult} in the order of subsets."""
    from slmfic import fit_mle

    fits = fit_mle([data], subsets, with_info=False)
    if fits.errors[0]:
        raise fits.errors[0]
    return {S.mask: fits.result(0, i) for i, S in enumerate(fits.subsets)}


def k_factor_one(blocks, data, psi):
    """safic._k_factor on the one dataset data: F (p, min(n, p)), F F' = K, of
    the RhoBetaBlocks blocks and the PsiWeights psi."""
    from slmfic.safic import _k_factor

    return _k_factor(np.array([blocks.I_rr]), blocks.I_br[None], data.WY[None],
                     data.X[None], psi.psi)[0]


def k_one(blocks, data, psi):
    """K = F F' (p, p) of k_factor_one, the second-moment matrix the sweep's
    sAFIC reads through its factor."""
    F = k_factor_one(blocks, data, psi)
    return F @ F.T


def safic_kernel_one(subsets, delta, Q_inv, F):
    """The sAFIC (bias2, penalty) arrays, (m,) each, of one dataset on subsets
    from the risk kernel fic._risk_terms, as simulate._sweep calls it: delta
    (p,), the beta Schur complement Q_inv (p, p) and a factor F (p, q) of K."""
    from slmfic.fic import _risk_terms

    bias2, penalty = _risk_terms(subsets, 0, Q_inv[None], (Q_inv @ delta)[None], F[None, None],
                                 (F.T @ delta)[None])
    return bias2[0], penalty[0]


def sweep_one(data, criteria, submodels):
    """simulate._sweep on the one dataset data, its error raised: the tables as
    {name: (order, terms)}, order a list and terms 1-D arrays."""
    from slmfic.simulate import _sweep

    tables, _realized, (error,) = _sweep([data], criteria, submodels)
    if error is not None:
        raise error
    return {name: (orders[0], tuple(t[0] for t in terms))
            for name, (orders, terms) in tables.items()}


def random_info(rng, p, n_obs=50, zero_sigma_beta=False):
    """Random SPD information over (rho, sigma^2, beta)."""
    from slmfic import FisherInfo

    m = p + 2
    B = rng.standard_normal((m, m))
    M = B @ B.T + m * np.eye(m)
    if zero_sigma_beta:
        M[1, 2:] = 0.0
        M[2:, 1] = 0.0
    return FisherInfo(matrix=M, n_obs=n_obs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def chain75():
    return SpatialWeights.from_adjacency(build_chain_lag1(75), row_normalize=True)
