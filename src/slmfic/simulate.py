"""Monte-Carlo experiment driver: seeded replications, criterion sweeps, frequency tables.

Each replication draws a fresh design matrix and innovation vector from an RNG
stream keyed by (seed, rep), fits every candidate submodel, scores the enabled
criteria, and records the rank-1 model.  Aggregation is an ordered reduction
over replication index, so reports are byte-identical for a given config and
seed regardless of worker count.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import aic
from .errors import ConfigError, ReplicationFailureError, SlmficError
from .fic import delta_hat, fic_score, rank_models
from .focus import FocusSpec, eval_focus
from .safic import (
    h_empirical,
    k_empirical,
    median_bandwidth,
    psi_kernel,
    psi_uniform,
    rho_beta_blocks,
    safic_score,
)
from .slm import Dataset, Theta, fit_mle
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
        if len(self.beta_true) != self.p:
            raise ConfigError(
                f"beta_true has {len(self.beta_true)} entries, expected p={self.p}"
            )
        if self.sigma2_true <= 0:
            raise ConfigError("sigma2_true must be positive")
        object.__setattr__(self, "beta_true", tuple(float(b) for b in self.beta_true))
        object.__setattr__(self, "criteria", tuple(self.criteria))


def build_weights(cfg: SimConfig) -> SpatialWeights:
    if cfg.weights_kind == "chain":
        return SpatialWeights.from_adjacency(
            build_chain_lag1(cfg.n), row_normalize=cfg.row_normalize
        )
    from .io import load_weights

    W = load_weights(cfg.weights_kind, row_normalize=cfg.row_normalize)
    if W.n != cfg.n:
        raise ConfigError(f"weights file has n={W.n}, config says n={cfg.n}")
    return W


def generate_dataset(cfg: SimConfig, rep: int, W: SpatialWeights | None = None) -> Dataset:
    """Draw one replication: iid standard normal X, Gaussian innovations,
    Y solved from (I - rho*W) Y = X beta + eps."""
    if W is None:
        W = build_weights(cfg)
    if not W.contains_rho(cfg.rho_true):
        raise ConfigError(
            f"rho_true={cfg.rho_true} outside admissible interval {W.rho_interval}"
        )
    rng = np.random.default_rng([cfg.seed, rep])
    X = rng.standard_normal((cfg.n, cfg.p))
    eps = np.sqrt(cfg.sigma2_true) * rng.standard_normal(cfg.n)
    rhs = X @ np.asarray(cfg.beta_true) + eps
    A = np.eye(cfg.n) - cfg.rho_true * W.matrix
    Y = np.linalg.solve(A, rhs)
    return Dataset(Y=Y, X=X, W=W)


def _needs_submodel_info(criteria) -> bool:
    return any(c.kind == "fic" and c.focus.kind == "max_eigen" for c in criteria)


def _score_one_rep(cfg: SimConfig, rep: int, W: SpatialWeights):
    """Rank every criterion on one replication.

    Returns (rankings, realized) where rankings maps criterion name to the
    list of masks in rank order and realized maps mask to the squared error of
    the estimated focus at the truth (first fic criterion only).
    """
    data = generate_dataset(cfg, rep, W)
    submodels = enumerate_submodels(cfg.p)
    with_info = _needs_submodel_info(cfg.criteria)
    fits = {}
    for S in submodels:
        fits[S.mask] = fit_mle(data, S, with_info=with_info or S.is_wide)
    wide = SubmodelId.wide(cfg.p)
    fit_wide = fits[wide.mask]
    info_full = fit_wide.info

    rankings: dict[str, list[int]] = {}
    for crit in cfg.criteria:
        if crit.kind == "aic":
            rows = [
                _ScoreRow(S, float(aic(fits[S.mask]))) for S in submodels
            ]
        elif crit.kind == "fic":
            rows = [
                _ScoreRow(
                    S,
                    fic_score(crit.focus, S, fits[S.mask], fit_wide, info_full, data).score,
                )
                for S in submodels
            ]
        else:  # safic
            if crit.scheme == "uniform":
                psi = psi_uniform(cfg.n)
            else:
                z0 = np.asarray(crit.z0) if crit.z0 is not None else data.X[0]
                h = crit.bandwidth if crit.bandwidth is not None else median_bandwidth(data.X)
                psi = psi_kernel(data.X, z0, h)
            blocks = rho_beta_blocks(info_full)
            K = k_empirical(blocks, h_empirical(data, psi))
            delta = delta_hat(fit_wide)
            rows = [
                _ScoreRow(S, safic_score(S, delta, blocks, K).score) for S in submodels
            ]
        order = sorted(rows, key=lambda r: (r.score, len(r.S), r.S.mask))
        rankings[crit.name] = [r.S.mask for r in order]

    realized: dict[int, float] = {}
    if cfg.track_realized_error:
        focus = next((c.focus for c in cfg.criteria if c.kind == "fic"), None)
        if focus is None:
            raise ConfigError("track_realized_error requires a fic criterion")
        theta_true = Theta(cfg.rho_true, cfg.sigma2_true, np.asarray(cfg.beta_true))
        mu_true = eval_focus(focus, theta_true, data, wide, info=info_full).value
        for S in submodels:
            mu_hat = eval_focus(focus, fits[S.mask].theta_hat, data, S, info=fits[S.mask].info).value
            realized[S.mask] = float(np.sum((mu_hat - mu_true) ** 2))
    return rankings, realized


@dataclass(frozen=True)
class _ScoreRow:
    S: SubmodelId
    score: float


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
    """Run the full experiment; per-rep failures are recorded and skipped,
    more than 10% of them raises ReplicationFailureError.

    The weights are built once; with jobs > 1 each worker process receives
    them once, through the pool initializer.
    """
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
    except SlmficError as exc:
        return None, f"{type(exc).__name__}: {exc}"


_worker_weights: SpatialWeights | None = None  # set once per worker process


def _set_worker_weights(W: SpatialWeights) -> None:
    global _worker_weights
    _worker_weights = W


def _try_rep_in_worker(cfg, rep):
    return _try_rep(cfg, rep, _worker_weights)


def fic_table(spec: FocusSpec, data: Dataset):
    """Exhaustive FIC sweep on a dataset: fit everything, score, rank."""
    submodels = enumerate_submodels(data.p)
    with_info = spec.kind == "max_eigen"
    fits = {S.mask: fit_mle(data, S, with_info=with_info or S.is_wide) for S in submodels}
    wide = SubmodelId.wide(data.p)
    fit_wide = fits[wide.mask]
    rows = [
        fic_score(spec, S, fits[S.mask], fit_wide, fit_wide.info, data) for S in submodels
    ]
    return rank_models(rows)


def safic_table(data: Dataset, scheme: str = "uniform", z0=None, bandwidth=None):
    """Exhaustive sAFIC sweep on a dataset."""
    wide = SubmodelId.wide(data.p)
    fit_wide = fit_mle(data, wide, with_info=True)
    if scheme == "uniform":
        psi = psi_uniform(data.n)
    elif scheme == "kernel":
        z0 = np.asarray(z0, dtype=float) if z0 is not None else data.X[0]
        h = bandwidth if bandwidth is not None else median_bandwidth(data.X)
        psi = psi_kernel(data.X, z0, h)
    else:
        raise ConfigError(f"unknown weight scheme {scheme!r}")
    blocks = rho_beta_blocks(fit_wide.info)
    K = k_empirical(blocks, h_empirical(data, psi))
    delta = delta_hat(fit_wide)
    rows = [
        safic_score(S, delta, blocks, K, labels=S.variable_names(data.names), scheme=psi.scheme)
        for S in enumerate_submodels(data.p)
    ]
    return rank_models(rows)
