"""Monte-Carlo experiment driver: seeded replications, criterion sweeps, frequency tables.

Each replication (_replicate) draws a fresh design matrix and innovation
vector from an RNG stream keyed by (seed, rep), ranks all candidate submodels
by the enabled criteria, and records the rank order.  One engine, _sweep,
ranks the submodels for replications, fic_table and safic_table alike and
returns arrays; only the two tables build rows.  Aggregation is an ordered
reduction over replication index, so reports are byte-identical for a given
config and seed regardless of worker count.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .diagnostics import aic
from .errors import ConfigError, NumericalError, ReplicationFailureError
from .fic import delta_hat, fic_score, fic_terms
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
from .submodels import enumerate_submodels
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
    return _draw(cfg, rep, W, _spatial_filter(cfg, W))


def _spatial_filter(cfg: SimConfig, W: SpatialWeights):
    """The CSC operator I - rho_true * W, built once per study."""
    return scipy.sparse.eye_array(cfg.n, format="csc") - cfg.rho_true * W.matrix


def _draw(cfg: SimConfig, rep: int, W: SpatialWeights, A) -> Dataset:
    """generate_dataset's body, with A = _spatial_filter(cfg, W) given."""
    rng = np.random.default_rng([cfg.seed, rep])
    X = rng.standard_normal((cfg.n, cfg.p))
    eps = np.sqrt(cfg.sigma2_true) * rng.standard_normal(cfg.n)
    rhs = X @ np.asarray(cfg.beta_true) + eps
    return Dataset(Y=scipy.sparse.linalg.spsolve(A, rhs), X=X, W=W)


def _replicate(cfg: SimConfig, W: SpatialWeights, A, rep: int):
    """Draw replication rep and rank every criterion on it.

    Returns ((rankings, realized), None), where rankings maps criterion name
    to the masks in rank order and realized maps mask to the squared error of
    the estimated focus at the truth (first fic criterion, track_realized_error
    only); or (None, "Class: message") if a NumericalError stops it.
    """
    try:
        data = _draw(cfg, rep, W, A)
        submodels = enumerate_submodels(cfg.p)
        tables, fits = _sweep(data, cfg.criteria, submodels, fit_all=cfg.track_realized_error)
        realized: dict[int, float] = {}
        if cfg.track_realized_error:
            focus = next(c.focus for c in cfg.criteria if c.kind == "fic")
            theta_true = Theta(cfg.rho_true, cfg.sigma2_true, np.asarray(cfg.beta_true))
            mu_true = eval_focus(focus, theta_true, data, submodels[-1]).value
            for mask, fit in fits.items():
                mu_hat = eval_focus(focus, fit.theta_hat, data, fit.submodel, info=fit.info).value
                realized[mask] = float(np.sum((mu_hat - mu_true) ** 2))
    except NumericalError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return ({name: order for name, (order, _terms) in tables.items()}, realized), None


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

    The weights and I - rho W are built once and carried, with the config, in
    the one replication function mapped over range(reps): serially with
    jobs = 1, else by a pool of min(jobs, reps) processes in which each worker
    takes one contiguous chunk of replications, and so one pickled copy of W
    with its spectrum.  jobs < 1 is a ConfigError.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    W = build_weights(cfg)
    replicate = functools.partial(_replicate, cfg, W, _spatial_filter(cfg, W))
    workers = min(jobs, cfg.reps)  # no idle worker processes
    if workers == 1:
        results = list(map(replicate, range(cfg.reps)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(replicate, range(cfg.reps),
                                    chunksize=math.ceil(cfg.reps / workers)))

    failures = [(rep, msg) for rep, (out, msg) in enumerate(results) if out is None]
    if len(failures) > 0.10 * cfg.reps:
        detail = "; ".join(f"rep {r}: {m}" for r, m in failures[:5])
        raise ReplicationFailureError(
            f"{len(failures)}/{cfg.reps} replications failed (limit 10%): {detail}"
        )

    done = [out for out, _msg in results if out is not None]
    top1: dict[str, dict[int, int]] = {c.name: {} for c in cfg.criteria}
    realized_sum: dict[int, float] = {}
    for rankings, realized in done:
        for name, masks in rankings.items():
            top1[name][masks[0]] = top1[name].get(masks[0], 0) + 1
        for mask, err in realized.items():
            realized_sum[mask] = realized_sum.get(mask, 0.0) + err
    realized_mse = None
    if cfg.track_realized_error and done:
        realized_mse = {mask: s / len(done) for mask, s in sorted(realized_sum.items())}
    return RunReport(cfg, len(done), failures, top1, [rankings for rankings, _ in done],
                     realized_mse)


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


def _sweep(data: Dataset, criteria, submodels, fit_all: bool = False):
    """Rank all 2^p subsets of a dataset, submodels = enumerate_submodels(p),
    by each criterion.

    fit_mle fits the wide model, with information; one fit_subsets call fits
    the others only when a score reads them: AIC the log-likelihood, FIC
    theta_S when focus.depends_on_theta, and fit_all every fit.  FIC with a
    theta-free focus and sAFIC read the wide fit only: each FIC focus is
    evaluated once at the wide fit, and a subset's Jacobian is the
    (rho, sigma^2, beta_S) columns of that evaluation unless the focus depends
    on theta.  delta_hat is computed once.  fic_terms and safic_terms score
    all subsets with one stacked solve per subset size, and each score array
    is ranked once (_rank_order).  Each distinct warning of the focus
    evaluations is issued once, as a RuntimeWarning.

    Returns ({criterion name: (order, terms)}, {mask: fit}).  order lists the
    subset indices (= masks) in rank order; terms, indexed by mask, are
    (bias2, variance) for FIC, (bias2, penalty) for sAFIC and (aic,) for AIC,
    and the score is their sum.  The fits are in ascending mask order.
    """
    fit_all = fit_all or any(
        c.kind == "aic" or (c.kind == "fic" and depends_on_theta(c.focus)) for c in criteria
    )
    fits = fit_subsets(data, submodels[:-1]) if fit_all else {}
    fit_wide = fits[submodels[-1].mask] = fit_mle(data, submodels[-1])
    D_n = delta_hat(fit_wide)
    sizes = (np.arange(len(submodels))[:, None] >> np.arange(data.p) & 1).sum(1)
    blocks, tables, messages = None, {}, {}
    for crit in criteria:
        if crit.kind == "aic":
            terms = (np.array([aic(fits[S.mask]) for S in submodels]),)
        elif crit.kind == "fic":
            theta_dependent = depends_on_theta(crit.focus)
            evals = [eval_focus(crit.focus, fits[S.mask].theta_hat, data, S,
                                fit_wide.info if S.is_wide else None)
                     for S in (submodels if theta_dependent else submodels[-1:])]
            J_wide = evals[-1].jacobian
            J = [ev.jacobian for ev in evals] if theta_dependent else J_wide
            messages.update(dict.fromkeys(msg for ev in evals for msg in ev.warnings))
            terms = fic_terms(submodels, J, J_wide[:, 2:], fit_wide.info, D_n)
        else:  # safic
            if blocks is None:
                blocks = rho_beta_blocks(fit_wide.info)
            psi = _psi(crit, data)
            terms = safic_terms(submodels, D_n, blocks, k_empirical(blocks, data, psi))
        score = terms[0] + terms[1] if len(terms) == 2 else terms[0]
        tables[crit.name] = (_rank_order(score, sizes), terms)
    for msg in messages:
        warnings.warn(msg, RuntimeWarning)
    return tables, fits


def _rank_order(score: np.ndarray, sizes) -> list[int]:
    """A sweep's subset indices (= masks) in rank order: ascending score, then
    fewer covariates, then the smaller mask; NaN scores last, in that order."""
    return np.lexsort((np.arange(len(sizes)), sizes, score)).tolist()


def _table(data: Dataset, crit: CriterionSpec):
    """Every subset's row of one fic or safic criterion, in rank order: one
    fic_score or safic_score call per subset, from the sweep's two terms, the
    sweep's SubmodelIds and a label table built once, by doubling, so that
    labels[m] == SubmodelId(m, p).variable_names(data.names)."""
    submodels = enumerate_submodels(data.p)
    order, (bias2, second) = _sweep(data, (crit,), submodels)[0][crit.name]
    labels = [()]
    for name in data.names:
        labels += [lab + (name,) for lab in labels]
    build, scheme = (fic_score, ()) if crit.kind == "fic" else (safic_score, (crit.scheme,))
    bias2, second = bias2.tolist(), second.tolist()
    return [build(submodels[i], bias2[i], second[i], labels[i], *scheme, rank)
            for rank, i in enumerate(order, start=1)]


def fic_table(spec: FocusSpec, data: Dataset):
    """Exhaustive FIC sweep on a dataset: every subset's row, in rank order."""
    return _table(data, CriterionSpec(kind="fic", name="FIC", focus=spec))


def safic_table(data: Dataset, scheme: str = "uniform", z0=None, bandwidth=None):
    """Exhaustive sAFIC sweep on a dataset: every subset's row, in rank order."""
    return _table(data, CriterionSpec(kind="safic", name="sAFIC", scheme=scheme, z0=z0,
                                      bandwidth=bandwidth))
