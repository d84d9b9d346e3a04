"""Monte-Carlo experiment driver: seeded replications, criterion sweeps, frequency tables.

Each replication draws a fresh design matrix and innovation vector from an RNG
stream keyed by (seed, rep), ranks all candidate submodels by the enabled
criteria, and records the rank-1 model.  One engine, _sweep, ranks the
submodels for replications, fic_table and safic_table alike.  Aggregation is an
ordered reduction over replication index, so reports are byte-identical for a
given config and seed regardless of worker count.
"""

from __future__ import annotations

import itertools
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .diagnostics import aic
from .errors import ConfigError, NumericalError, ReplicationFailureError
from .fic import FicRow, delta_hat, fic_score, fic_terms
from .focus import FocusSpec, depends_on_theta, eval_focus
from .safic import (
    PsiWeights,
    check_kernel,
    k_empirical,
    median_bandwidth,
    psi_kernel,
    psi_uniform,
    rho_beta_blocks,
    safic_score,
    safic_terms,
)
from .slm import Dataset, Theta, fit_mle, fit_subsets
from .submodels import SubmodelId, enumerate_submodels
from .weights import SpatialWeights, build_chain_lag1


@dataclass(frozen=True)
class CriterionSpec:
    """One selection criterion to evaluate per replication."""

    kind: str  # "fic" | "safic" | "aic"
    name: str
    focus: FocusSpec | None = None
    scheme: str = "uniform"
    z0: tuple[float, ...] | None = None
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("fic", "safic", "aic"):
            raise ConfigError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "fic" and self.focus is None:
            raise ConfigError(f"criterion {self.name!r}: fic needs a focus spec")
        if self.kind == "safic" and self.scheme not in ("uniform", "kernel"):
            raise ConfigError(f"criterion {self.name!r}: unknown scheme {self.scheme!r}")


def default_criteria() -> tuple[CriterionSpec, ...]:
    return (
        CriterionSpec(kind="fic", name="FIC1", focus=FocusSpec("conditional_mean", location=0)),
        CriterionSpec(kind="safic", name="sAFIC1", scheme="uniform"),
        CriterionSpec(kind="aic", name="AIC"),
    )


@dataclass(frozen=True)
class SimConfig:
    """Design of a simulation study: data-generating process, replications
    and the criteria scored on each.

    The defaults are the built-in study.  Each of 100 replications draws
    n = 75 units on a lag-1 chain (row-normalized weights), covariates
    x1..x5 iid N(0, 1), and Y from (I - 0.5 W) Y = X beta + eps with
    beta = (0, 0.2, 0.2, 0, 0) and eps ~ N(0, I).  The true model is
    {x2, x3}; x1, x4 and x5 are null.  See :func:`generate_dataset`.
    """

    n: int = 75
    p: int = 5
    rho_true: float = 0.5
    beta_true: tuple[float, ...] = (0.0, 0.2, 0.2, 0.0, 0.0)
    sigma2_true: float = 1.0
    reps: int = 100
    seed: int = 0
    weights_kind: str = "chain"  # "chain" or a file path
    row_normalize: bool = True
    criteria: tuple[CriterionSpec, ...] = field(default_factory=default_criteria)
    track_realized_error: bool = False

    def __post_init__(self):
        if self.reps < 1:
            raise ConfigError("reps must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if len(self.beta_true) != self.p:
            raise ConfigError(
                f"beta_true has {len(self.beta_true)} entries, expected p={self.p}"
            )
        if not (np.isfinite(self.sigma2_true) and self.sigma2_true > 0):
            raise ConfigError(f"sigma2_true must be finite and positive, got {self.sigma2_true}")
        object.__setattr__(self, "beta_true", tuple(float(b) for b in self.beta_true))
        if not np.all(np.isfinite(self.beta_true)):
            raise ConfigError(f"beta_true {list(self.beta_true)} has a non-finite entry")
        object.__setattr__(self, "criteria", tuple(self.criteria))
        if self.track_realized_error and not any(c.kind == "fic" for c in self.criteria):
            raise ConfigError("track_realized_error requires a fic criterion")
        for i, c in enumerate(self.criteria):
            if any(d.name == c.name for d in self.criteria[:i]):
                raise ConfigError(f"criterion name {c.name!r} is repeated")
            focus = c.focus
            if focus and focus.kind == "conditional_mean" and not 0 <= focus.location < self.n:
                raise ConfigError(f"criterion {c.name!r}: focus location {focus.location} "
                                  f"out of range for n={self.n}")
            if focus and any(j >= self.p for j in focus.coeff_subset or ()):
                raise ConfigError(f"criterion {c.name!r}: coeff_subset {list(focus.coeff_subset)} "
                                  f"out of range for p={self.p}")
            if c.kind == "safic" and c.scheme == "kernel":
                check_kernel(c.z0, c.bandwidth, self.p, f"criterion {c.name!r}: ")


def build_weights(cfg: SimConfig) -> SpatialWeights:
    """The config's weights; rho_true must lie in their admissible interval."""
    if cfg.weights_kind == "chain":
        W = SpatialWeights.from_adjacency(build_chain_lag1(cfg.n), row_normalize=cfg.row_normalize)
    else:
        from .io import load_weights

        W = load_weights(cfg.weights_kind, row_normalize=cfg.row_normalize)
        if W.n != cfg.n:
            raise ConfigError(f"weights file has n={W.n}, config says n={cfg.n}")
    if not W.contains_rho(cfg.rho_true):
        raise ConfigError(f"rho_true={cfg.rho_true} outside admissible interval {W.rho_interval}")
    return W


def generate_dataset(cfg: SimConfig, rep: int, W: SpatialWeights | None = None) -> Dataset:
    """Draw one replication: iid standard normal X, Gaussian innovations,
    Y solved from (I - rho*W) Y = X beta + eps.  W defaults to build_weights(cfg)."""
    if W is None:
        W = build_weights(cfg)
    rng = np.random.default_rng([cfg.seed, rep])
    X = rng.standard_normal((cfg.n, cfg.p))
    eps = np.sqrt(cfg.sigma2_true) * rng.standard_normal(cfg.n)
    rhs = X @ np.asarray(cfg.beta_true) + eps
    A = scipy.sparse.eye_array(cfg.n, format="csc") - cfg.rho_true * W.matrix  # CSC
    Y = scipy.sparse.linalg.spsolve(A, rhs)
    return Dataset(Y=Y, X=X, W=W)


def _score_one_rep(cfg: SimConfig, rep: int, W: SpatialWeights):
    """Rank every criterion on one replication.

    Returns (rankings, realized) where rankings maps criterion name to the
    list of masks in rank order and realized maps mask to the squared error of
    the estimated focus at the truth (first fic criterion only).
    """
    data = generate_dataset(cfg, rep, W)
    tables, fits = _sweep(data, cfg.criteria, fit_all=cfg.track_realized_error)
    rankings = {name: [r.submodel.mask for r in rows] for name, rows in tables.items()}
    realized: dict[int, float] = {}
    if cfg.track_realized_error:
        focus = next(c.focus for c in cfg.criteria if c.kind == "fic")
        wide = SubmodelId.wide(cfg.p)
        theta_true = Theta(cfg.rho_true, cfg.sigma2_true, np.asarray(cfg.beta_true))
        mu_true = eval_focus(focus, theta_true, data, wide).value
        for mask, fit in fits.items():
            mu_hat = eval_focus(focus, fit.theta_hat, data, fit.submodel, info=fit.info).value
            realized[mask] = float(np.sum((mu_hat - mu_true) ** 2))
    return rankings, realized


@dataclass
class RunReport:
    """Aggregated simulation output in frequency-table form."""

    config: SimConfig
    reps_completed: int
    failures: list[tuple[int, str]]
    top1_counts: dict[str, dict[int, int]]          # criterion -> mask -> count
    per_rep_rankings: list[dict[str, list[int]]]    # in replication order
    realized_mse: dict[int, float] | None = None    # mask -> mean squared error

    def top_models(self, criterion: str, k: int = 5) -> list[tuple[int, int]]:
        counts = self.top1_counts[criterion]
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def monte_carlo(cfg: SimConfig, jobs: int = 1) -> RunReport:
    """Run the full experiment; a NumericalError in a replication is recorded and
    skipped, more than 10% of them raise ReplicationFailureError, an InputError stops it.

    The weights are built once; with jobs > 1 each worker process receives
    them once, through the pool initializer.  jobs < 1 is a ConfigError.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    W = build_weights(cfg)
    reps = range(cfg.reps)
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_set_worker_weights, initargs=(W,)
        ) as pool:
            results = list(pool.map(_try_rep_in_worker, itertools.repeat(cfg), reps))
    else:
        results = [_try_rep(cfg, rep, W) for rep in reps]

    failures = [(rep, msg) for rep, (out, msg) in enumerate(results) if out is None]
    if len(failures) > 0.10 * cfg.reps:
        detail = "; ".join(f"rep {r}: {m}" for r, m in failures[:5])
        raise ReplicationFailureError(
            f"{len(failures)}/{cfg.reps} replications failed (limit 10%): {detail}"
        )

    top1: dict[str, dict[int, int]] = {c.name: {} for c in cfg.criteria}
    per_rep = []
    realized_sum: dict[int, float] = {}
    completed = 0
    for out, _msg in results:
        if out is None:
            continue
        rankings, realized = out
        completed += 1
        per_rep.append(rankings)
        for name, masks in rankings.items():
            top1[name][masks[0]] = top1[name].get(masks[0], 0) + 1
        for mask, err in realized.items():
            realized_sum[mask] = realized_sum.get(mask, 0.0) + err

    realized_mse = None
    if cfg.track_realized_error and completed:
        realized_mse = {mask: s / completed for mask, s in sorted(realized_sum.items())}
    return RunReport(
        config=cfg,
        reps_completed=completed,
        failures=failures,
        top1_counts=top1,
        per_rep_rankings=per_rep,
        realized_mse=realized_mse,
    )


def _try_rep(cfg, rep, W):
    try:
        return _score_one_rep(cfg, rep, W), None
    except NumericalError as exc:
        return None, f"{type(exc).__name__}: {exc}"


_worker_weights: SpatialWeights | None = None  # set once per worker process


def _set_worker_weights(W: SpatialWeights) -> None:
    global _worker_weights
    _worker_weights = W


def _try_rep_in_worker(cfg, rep):
    return _try_rep(cfg, rep, _worker_weights)


def _psi(crit: CriterionSpec, data: Dataset) -> PsiWeights:
    """sAFIC weights of a criterion: uniform, or a Gaussian kernel centred on
    z0 (default: the first unit's covariates) with the median-distance
    bandwidth unless one is given."""
    if crit.scheme == "uniform":
        return psi_uniform(data.n)
    check_kernel(crit.z0, crit.bandwidth, data.p)
    z0 = np.asarray(crit.z0, dtype=float) if crit.z0 is not None else data.X[0]
    h = crit.bandwidth if crit.bandwidth is not None else median_bandwidth(data.X)
    return psi_kernel(data.X, z0, h)


def _sweep(data: Dataset, criteria, fit_all: bool = False):
    """Rank all 2^p subsets of a dataset by each criterion.

    fit_mle fits the wide model, with information; one fit_subsets call fits
    the others only when a score reads them: AIC the log-likelihood, FIC
    theta_S when focus.depends_on_theta, and fit_all every fit.  FIC with a
    theta-free focus and sAFIC read the wide fit only: each FIC focus is
    evaluated once at the wide fit, and a subset's Jacobian is the
    (rho, sigma^2, beta_S) columns of that evaluation unless the focus depends
    on theta.  delta_hat and the labels are computed once.  fic_terms and
    safic_terms score all subsets with one stacked solve per subset size; each
    score array is ranked once (_rank_order), and fic_score and safic_score
    build each row from its terms and its rank, in rank order.  AIC rows are
    FicRows whose score is the AIC (bias2 and variance are NaN).  Each distinct
    warning of the focus evaluations is issued once, as a RuntimeWarning.

    Returns ({criterion name: rows in rank order}, {mask: fit}), the fits in
    ascending mask order.
    """
    submodels = enumerate_submodels(data.p)
    fit_all = fit_all or any(
        c.kind == "aic" or (c.kind == "fic" and depends_on_theta(c.focus)) for c in criteria
    )
    fits = fit_subsets(data, submodels[:-1]) if fit_all else {}
    fit_wide = fits[submodels[-1].mask] = fit_mle(data, submodels[-1])
    D_n = delta_hat(fit_wide)
    labels = [S.variable_names(data.names) for S in submodels]
    sizes = [len(S) for S in submodels]
    blocks, tables, messages = None, {}, {}
    for crit in criteria:
        if crit.kind == "aic":
            score = np.array([aic(fits[S.mask]) for S in submodels])
            rows = [FicRow(submodels[i], labels[i], np.nan, np.nan, float(score[i]), rank)
                    for rank, i in enumerate(_rank_order(score, sizes), start=1)]
        elif crit.kind == "fic":
            theta_dependent = depends_on_theta(crit.focus)
            evals = [eval_focus(crit.focus, fits[S.mask].theta_hat, data, S,
                                fit_wide.info if S.is_wide else None)
                     for S in (submodels if theta_dependent else submodels[-1:])]
            J_wide = evals[-1].jacobian
            J = [ev.jacobian for ev in evals] if theta_dependent else J_wide
            messages.update(dict.fromkeys(msg for ev in evals for msg in ev.warnings))
            bias2, variance = fic_terms(submodels, J, J_wide[:, 2:], fit_wide.info, D_n)
            rows = [fic_score(submodels[i], bias2[i], variance[i], labels[i], rank)
                    for rank, i in enumerate(_rank_order(bias2 + variance, sizes), start=1)]
        else:  # safic
            if blocks is None:
                blocks = rho_beta_blocks(fit_wide.info)
            psi = _psi(crit, data)
            bias2, penalty = safic_terms(submodels, D_n, blocks, k_empirical(blocks, data, psi))
            rows = [safic_score(submodels[i], bias2[i], penalty[i], labels[i], psi.scheme, rank)
                    for rank, i in enumerate(_rank_order(bias2 + penalty, sizes), start=1)]
        tables[crit.name] = rows
    for msg in messages:
        warnings.warn(msg, RuntimeWarning)
    return tables, fits


def _rank_order(score: np.ndarray, sizes) -> list[int]:
    """A sweep's subset indices (= masks) in rank order: ascending score, then
    fewer covariates, then the smaller mask; NaN scores last, in that order."""
    return np.lexsort((np.arange(len(sizes)), sizes, score)).tolist()


def fic_table(spec: FocusSpec, data: Dataset):
    """Exhaustive FIC sweep on a dataset: every subset's row, in rank order."""
    crit = CriterionSpec(kind="fic", name="FIC", focus=spec)
    return _sweep(data, (crit,))[0][crit.name]


def safic_table(data: Dataset, scheme: str = "uniform", z0=None, bandwidth=None):
    """Exhaustive sAFIC sweep on a dataset: every subset's row, in rank order."""
    crit = CriterionSpec(kind="safic", name="sAFIC", scheme=scheme, z0=z0, bandwidth=bandwidth)
    return _sweep(data, (crit,))[0][crit.name]
