"""Monte-Carlo experiment driver: seeded replications, criterion sweeps, frequency tables.

Each replication draws a fresh design matrix and innovation vector from an
RNG stream keyed by (seed, rep).  One batch function, _replicate, draws a
contiguous range of replications and ranks all candidate submodels of them,
in even batches sized by what a replication holds, through one engine,
_sweep, which carries a leading replication axis through the fits, the
informations and the stacked scores, and records each replication's rank
orders or the first error that stopped it.  Each stage has one form, over
the batch (fit_mle, eval_focus_batch, and FIC's and sAFIC's one risk kernel,
fic._risk_terms, which extends each subset's Cholesky factor from its
parent's); fic_table and safic_table run the engine on a batch of one
dataset, and only they build rows.  Aggregation is an ordered reduction over
replication index, and no replication's numbers depend on the others in its
batch, so reports are byte-identical for a given config and seed regardless
of worker count.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import count, repeat

import numpy as np
import scipy.sparse.linalg

from . import weights
from .errors import BandwidthError, ConfigError, ReplicationFailureError
from .fic import _risk_terms, fic_score, fic_terms
from .focus import GAP_WARNING, FocusSpec, depends_on_theta, eval_focus_batch
from .safic import (
    _k_factor,
    _rho_beta_blocks,
    check_kernel,
    median_bandwidth,
    psi_kernel,
    psi_uniform,
    safic_score,
)
from .slm import Dataset, _certificates, _dot, fit_mle
from .submodels import enumerate_submodels
from .weights import SpatialWeights, build_chain_lag1

_TOP_MODELS = 5  # winners per criterion that RunReport.top_models lists


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
        if not self.criteria:
            raise ConfigError("criteria is empty: the study needs at least one criterion")
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
    Y solved from (I - rho*W) Y = X beta + eps by a sparse LU factor of
    I - rho*W built for this draw (a study builds one per batch call, see
    _replicate).  W defaults to build_weights(cfg)."""
    if W is None:
        W = build_weights(cfg)
    return _draw(cfg, rep, W, _spatial_filter(cfg, W))


def _spatial_filter(cfg: SimConfig, W: SpatialWeights):
    """The SuperLU factor (scipy.sparse.linalg.splu) of the CSC operator
    I - rho_true * W.  splu and spsolve factor with the same default options,
    so its solve gives spsolve's solution bit for bit.  A SuperLU object
    cannot be pickled: each process builds its own."""
    return scipy.sparse.linalg.splu(scipy.sparse.eye_array(cfg.n, format="csc")
                                   - cfg.rho_true * W.matrix)


def _draw(cfg: SimConfig, rep: int, W: SpatialWeights, lu) -> Dataset:
    """generate_dataset's body, with lu = _spatial_filter(cfg, W) given."""
    rng = np.random.default_rng([cfg.seed, rep])
    X = rng.standard_normal((cfg.n, cfg.p))
    eps = np.sqrt(cfg.sigma2_true) * rng.standard_normal(cfg.n)
    rhs = X @ np.asarray(cfg.beta_true) + eps
    return Dataset(Y=lu.solve(rhs), X=X, W=W)


def _replicate(cfg: SimConfig, W: SpatialWeights, reps: range) -> list:
    """Draw replications reps and rank every criterion on them.  I - rho W is
    factored once, here, in the process that uses the factor (it cannot be
    pickled), and each draw is one solve with it.  The replications go in
    even batches, one _sweep each, of at most
    weights._CHUNK // max(n (p + 2), 2^p (3p + 8)): a replication adds n (p + 2)
    to the inputs and per-dataset temporaries (its X, Y and WY; the
    projection's Q; sAFIC's psi^{1/2} Omega) and 2^p (3p + 8) to the per-subset
    arrays the sweep keeps (each fit's rho, sigma^2, log-likelihood, steps and
    beta, and its regressions' coefficients and 2 x 2 Gram matrix).  Each
    stage's share per subset of one dataset is no larger, so every stage
    chunks itself within weights._CHUNK elements; spillover's tiled
    (R, 2^p, p + 2, p + 2) Jacobian is the one array beyond it.

    Returns, per replication, ((rankings, realized), None), where rankings maps
    criterion name to the masks in rank order and realized is the sweep's row
    of realized errors by mask, empty unless track_realized_error; or (None,
    "Class: message") if a NumericalError stops it.
    """
    submodels = enumerate_submodels(cfg.p)
    most = max(1, weights._CHUNK // max(cfg.n * (cfg.p + 2), len(submodels) * (3 * cfg.p + 8)))
    truth = (cfg.rho_true, cfg.sigma2_true, cfg.beta_true) if cfg.track_realized_error else None
    lu, results = _spatial_filter(cfg, W), []
    for part in np.array_split(np.arange(reps.start, reps.stop), -(-len(reps) // most)):
        batch = [_draw(cfg, rep, W, lu) for rep in part.tolist()]
        tables, realized, errors = _sweep(batch, cfg.criteria, submodels, truth)
        for r, error in enumerate(errors):
            if error is not None:
                results.append((None, f"{type(error).__name__}: {error}"))
            else:
                rankings = {name: orders[r] for name, (orders, _terms) in tables.items()}
                results.append(((rankings, realized[r]), None))
    return results


@dataclass
class RunReport:
    """Aggregated simulation output in frequency-table form."""

    config: SimConfig
    reps_completed: int
    failures: list[tuple[int, str]]
    top1_counts: dict[str, dict[int, int]]          # criterion -> mask -> count
    per_rep_rankings: list[dict[str, list[int]]]    # in replication order
    realized_mse: dict[int, float] | None = None    # mask -> mean squared error

    def top_models(self, criterion: str) -> list[tuple[int, int]]:
        """The criterion's _TOP_MODELS most frequent winners as (mask, count),
        most frequent first, ties by the smaller mask."""
        counts = self.top1_counts[criterion]
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:_TOP_MODELS]


def monte_carlo(cfg: SimConfig, jobs: int = 1) -> RunReport:
    """Run the full experiment; a NumericalError in a replication is recorded and
    skipped, more than 10% of them raise ReplicationFailureError, an InputError stops it.

    The weights are built once and carried, with the config, in the one
    batch function (_replicate) mapped over contiguous chunks of range(reps):
    the whole range in this process with jobs = 1, else one chunk per worker
    of a pool of min(jobs, reps) processes, each taking one pickled copy of W
    with its spectrum.  Each call of the batch function, one per worker,
    factors I - rho W once for all its draws and ranks them in _replicate's
    even batches: two _sweep calls for the default study with jobs = 1.
    jobs < 1 is a ConfigError.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    W = build_weights(cfg)
    replicate = functools.partial(_replicate, cfg, W)
    workers = min(jobs, cfg.reps)  # no idle worker processes
    if workers == 1:
        results = replicate(range(cfg.reps))
    else:
        size = math.ceil(cfg.reps / workers)
        chunks = [range(i, min(i + size, cfg.reps)) for i in range(0, cfg.reps, size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [out for chunk in pool.map(replicate, chunks) for out in chunk]
    return _report(cfg, results)


def _report(cfg: SimConfig, results) -> RunReport:
    """The RunReport of _replicate's results over range(reps), in replication order."""
    failures = [(rep, msg) for rep, (out, msg) in enumerate(results) if out is None]
    if len(failures) > 0.10 * cfg.reps:
        detail = "; ".join(f"rep {r}: {m}" for r, m in failures[:5])
        raise ReplicationFailureError(
            f"{len(failures)}/{cfg.reps} replications failed (limit 10%): {detail}"
        )

    done = [out for out, _msg in results if out is not None]
    top1: dict[str, dict[int, int]] = {c.name: {} for c in cfg.criteria}
    for rankings, _realized in done:
        for name, masks in rankings.items():
            top1[name][masks[0]] = top1[name].get(masks[0], 0) + 1
    realized_mse = None
    if cfg.track_realized_error and done:
        total = sum(realized for _rankings, realized in done)  # in replication order
        realized_mse = {mask: s / len(done) for mask, s in enumerate(total.tolist())}
    return RunReport(cfg, len(done), failures, top1, [rankings for rankings, _ in done],
                     realized_mse)


def _psi(crit: CriterionSpec, batch):
    """sAFIC weights of a criterion on a batch and each dataset's error or None:
    uniform, one (n,) array that every dataset shares, or per dataset, (R, n),
    a Gaussian kernel centred on z0 (default: the dataset's first unit's
    covariates) with the median-distance bandwidth unless one is given.  Where
    the bandwidth fails, uniform stand-in weights and the BandwidthError."""
    if crit.scheme == "uniform":
        return psi_uniform(batch[0].n).psi, [None] * len(batch)
    check_kernel(crit.z0, crit.bandwidth, batch[0].p)
    rows, errors = [], []
    for data in batch:
        z0 = np.asarray(crit.z0, dtype=float) if crit.z0 is not None else data.X[0]
        try:
            h = crit.bandwidth if crit.bandwidth is not None else median_bandwidth(data.X)
            rows.append(psi_kernel(data.X, z0, h).psi)
            errors.append(None)
        except BandwidthError as exc:
            rows.append(psi_uniform(data.n).psi)
            errors.append(exc)
    return np.stack(rows), errors


def _sweep(batch, criteria, submodels, truth=None):
    """Rank all 2^p subsets of each dataset of a batch (datasets that share one
    W and p), submodels = enumerate_submodels(p), by each criterion and, given
    the data-generating truth = (rho, sigma^2, beta), score the realized error.

    One fit_mle call on the batch fits the wide model of every dataset with
    its information and, in the same search, the other subsets when a score
    reads their fits: AIC the log-likelihood, FIC theta_S when
    focus.depends_on_theta, and truth every fit.  Each dataset's wide
    information and, once an sAFIC criterion needs it, its beta Schur
    complement are certified once, by one stacked check per kind: by
    interlacing, that certifies every block a subset solves against.  Each
    FIC criterion is one eval_focus_batch call at the fits made.  A theta-free
    focus scores every subset from the wide fit's Jacobian, whose (rho,
    sigma^2, beta_S) columns are each subset's, even where every subset was
    fitted; a focus that depends on theta from each fit's (max_eigen
    certifies each subset's information, by one stacked check per chunk).
    sAFIC reads the wide fit only.  delta_hat = sqrt(n) beta_wide is computed
    once.  FIC (fic_terms) and sAFIC (M = Q^{-1}, b = Q^{-1} delta, G = F, F F' = K from
    safic._k_factor) score every dataset through one risk kernel,
    fic._risk_terms, which borders each subset's Cholesky factor from its
    parent's by one row, all 2^p of them in a few arrays; AIC is
    one array expression, and each score array is ranked once (_rank_order).
    With truth, one more call evaluates the first fic criterion's focus at the
    truth, and a fit's realized error is the squared distance of that
    criterion's value at the fit from it.  GAP_WARNING is issued once, as a RuntimeWarning, if a
    dataset that completes has a flagged fit; the truth's flags are not read.

    Every stage runs on the whole batch, a dataset that has failed too, so
    that each stage sees every input error; each returns one error or None
    per dataset, and a dataset keeps the first of its errors in stage order:
    its first failing fit in subset order (the wide model last), the wide
    information, each criterion in turn, then the truth.  A failed stage
    leaves stand-ins that keep the next stage finite and raising nothing: a
    failed fit's NaN rho enters as 0, inside every admissible interval; a
    matrix that fails its certificate is replaced by the identity; and a
    kernel whose bandwidth fails by uniform weights.

    Returns (tables, realized, errors).  tables maps criterion name to
    (orders, terms): orders[r] lists dataset r's subset indices (= masks) in
    rank order; terms, (R, 2^p) arrays indexed by dataset and mask, are
    (bias2, variance) for FIC, (bias2, penalty) for sAFIC and (aic,) for AIC,
    and the score is their sum.  realized is (R, 2^p) likewise with truth,
    else (R, 0), and errors the NumericalError or None of each dataset; the
    rows of a dataset with an error are meaningless and never read.
    """
    fit_all = truth is not None or any(
        c.kind == "aic" or (c.kind == "fic" and depends_on_theta(c.focus)) for c in criteria
    )
    fits = fit_mle(batch, submodels if fit_all else submodels[-1:])
    reps, p = len(batch), batch[0].p
    rho = np.nan_to_num(fits.rho)
    D = np.sqrt(batch[0].n) * fits.beta[:, -1]
    sizes = (np.arange(len(submodels))[:, None] >> np.arange(p) & 1).sum(1)
    found, tables, flagged, blocks, kept = [fits.errors], {}, np.zeros(reps, bool), None, None
    realized = np.empty((reps, 0))
    for crit in criteria:
        if crit.kind == "aic":
            terms = (-2.0 * fits.loglik + 2.0 * (sizes + 2),)
        elif crit.kind == "fic":
            value, J, gap, errors = eval_focus_batch(crit.focus, batch, fits.subsets, rho,
                                                     fits.sigma2, fits.beta)
            kept = kept or (crit.focus, value)  # the first fic criterion's, read by the truth
            flagged |= gap.any(axis=1)
            found.append(errors)
            # a theta-free focus: one Jacobian, the wide fit's, serves every subset
            J_S = J if depends_on_theta(crit.focus) else J[:, -1:]
            terms = fic_terms(submodels, J_S, J[:, -1, :, 2:], fits.info, D)
        else:
            if blocks is None:
                blocks = _rho_beta_blocks(fits.info)
                found.append(_certificates(
                    blocks[2], "beta Schur complement of the wide information"))
                blocks[2][[e is not None for e in found[-1]]] = np.eye(p)
                WY, X = (np.stack([getattr(data, a) for data in batch]) for a in ("WY", "X"))
            psi, errors = _psi(crit, batch)
            found.append(errors)
            F = _k_factor(blocks[0], blocks[1], WY, X, psi)
            terms = _risk_terms(submodels, 0, blocks[2], _dot(blocks[2], D[:, None]), F[:, None],
                                _dot(np.swapaxes(F, 1, 2), D[:, None]))
        score = terms[0] + terms[1] if len(terms) == 2 else terms[0]
        tables[crit.name] = (_rank_order(score, sizes), terms)
    if truth is not None:
        value, _J, _gap, errors = eval_focus_batch(
            kept[0], batch, submodels[-1:], np.full((reps, 1), truth[0]),
            np.full((reps, 1), truth[1]), np.tile(truth[2], (reps, 1, 1)))
        found.append(errors)
        realized = np.sum((kept[1] - value) ** 2, axis=-1)
    errors = [next(filter(None, row), None) for row in zip(*found)]
    if any(f and e is None for f, e in zip(flagged.tolist(), errors)):
        warnings.warn(GAP_WARNING, RuntimeWarning)
    return tables, realized, errors


def _rank_order(score: np.ndarray, sizes) -> list:
    """The subset indices (= masks) in rank order, as a list, or one list per row
    of a 2-D score: ascending score, then fewer covariates, then the smaller
    mask; NaN scores last, in that order."""
    return np.lexsort(np.broadcast_arrays(np.arange(len(sizes)), sizes, score)).tolist()


def _table(data: Dataset, crit: CriterionSpec):
    """Every subset's row of one fic or safic criterion, in rank order: one
    fic_score or safic_score call per subset, from the one-dataset sweep's two
    terms, the sweep's SubmodelIds and a label table built once, by doubling,
    so that labels[m] == SubmodelId(m, p).variable_names(data.names); each is
    picked in rank order by one map."""
    submodels = enumerate_submodels(data.p)
    tables, _realized, (error,) = _sweep([data], (crit,), submodels)
    if error is not None:
        raise error
    orders, (bias2, second) = tables[crit.name]
    labels = [()]
    for name in data.names:
        labels += [lab + (name,) for lab in labels]
    build, scheme = (fic_score, ()) if crit.kind == "fic" else (safic_score, (repeat(crit.scheme),))
    columns = (submodels, bias2[0].tolist(), second[0].tolist(), labels)
    return list(map(build, *(map(col.__getitem__, orders[0]) for col in columns), *scheme,
                    count(1)))


def fic_table(spec: FocusSpec, data: Dataset):
    """Exhaustive FIC sweep on a dataset: every subset's row, in rank order."""
    return _table(data, CriterionSpec(kind="fic", name="FIC", focus=spec))


def safic_table(data: Dataset, scheme: str = "uniform", z0=None, bandwidth=None):
    """Exhaustive sAFIC sweep on a dataset: every subset's row, in rank order."""
    return _table(data, CriterionSpec(kind="safic", name="sAFIC", scheme=scheme, z0=z0,
                                      bandwidth=bandwidth))
