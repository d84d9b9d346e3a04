"""The benchmark's workloads: seeded inputs, one unit of work, correctness gates.

Inputs are generated here with numpy from the workload seed; slmfic only
receives the generated arrays or files.  Every call into slmfic goes through a
module attribute (``simulate.fic_table``, ``cli.main``, ...) so that the
tracer's wrappers see it.

Each workload object has

``prepare()``
    generate the inputs (and write them to files where the workload reads
    files); part of set-up;
``unit()``
    one unit of work, timed; returns a :class:`UnitResult` whose ``text`` is
    the rendered output, identical for every unit of a run;
``check(results)``
    the correctness gates, run after the timed units; returns the number of
    checks made and a message per failed check;
``kernel``
    the reference kernel class (reference.py) whose times the runner scales
    the unit times by.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import slmfic.cli as cli
import slmfic.fic as fic
import slmfic.io as sio
import slmfic.safic as safic
import slmfic.simulate as simulate
import slmfic.slm as slm
import slmfic.weights as weights
from slmfic.focus import FocusSpec
from slmfic.submodels import SubmodelId

from reference import (
    EigenKernel,
    FitKernel,
    chain_weights,
    fic_terms,
    information,
    profile_aics,
    profile_fit,
)

N_CHAIN = 75
RHO = 0.5
PAPER_BETA = (0.0, 0.2, 0.2, 0.0, 0.0)

# Relative tolerance of the floating-point identities checked below.
IDENTITY_TOL = 1e-10
# Relative tolerance of the wide model's squared bias (criterion 5), as a
# share of the wide model's variance.  The identity is exact only when the
# sigma^2-beta information block is zero; the finite-difference information
# leaves it near 1e-5.
WIDE_BIAS_TOL = 1e-8
# Relative tolerances of slmfic's finite-difference information against the
# closed form, and of FIC rows against rows recomputed from the closed form.
INFO_TOL = 1e-4
FIC_TOL = 1e-3
_EPS_THIRD = np.finfo(float).eps ** (1.0 / 3.0)
# criterion-1 fingerprint of the default study at seed 0:
# criterion -> (wide model top-1 count, top-1 count of models with >= 4 variables)
FINGERPRINT_SEED0 = {"sAFIC1": (3, 20), "AIC": (1, 5)}
ORACLE_REPS = 5


@dataclass
class UnitResult:
    text: str
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    detail: object = None


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# input generators (numpy only)


def chain_edges(n: int) -> np.ndarray:
    """Directed edge array (both directions) of the lag-1 chain graph."""
    i = np.arange(n - 1)
    return np.concatenate([np.c_[i, i + 1], np.c_[i + 1, i]])


def lattice_edges(side: int) -> np.ndarray:
    """Directed edge array (both directions) of a side x side rook lattice."""
    idx = np.arange(side * side).reshape(side, side)
    pairs = [(idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])]
    parts = []
    for a, b in pairs:
        parts += [np.c_[a.ravel(), b.ravel()], np.c_[b.ravel(), a.ravel()]]
    return np.concatenate(parts)


def dense_adjacency(edges: np.ndarray, n: int) -> np.ndarray:
    A = np.zeros((n, n))
    A[edges[:, 0], edges[:, 1]] = 1.0
    return A


def lag_response(edges: np.ndarray, n: int, rho: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - rho W) y = rhs for the row-normalized W of an edge array.

    Neumann series sum_k (rho W)^k rhs; W is row-stochastic, so term k is at
    most |rho|^k max|rhs| and the loop stops once terms fall below 1e-17 of
    the sum.
    """
    deg = np.bincount(edges[:, 0], minlength=n).astype(float)
    y = rhs.copy()
    term = rhs.copy()
    while np.max(np.abs(term)) > 1e-17 * np.max(np.abs(y)):
        term = rho * np.bincount(edges[:, 0], weights=term[edges[:, 1]], minlength=n) / deg
        y += term
    return y


def lag_dataset(rng, edges, n, p, beta):
    """Covariates X ~ N(0, I) and the spatial-lag response at rho = 0.5."""
    X = rng.standard_normal((n, p))
    eps = rng.standard_normal(n)
    return X, lag_response(edges, n, RHO, X @ np.asarray(beta) + eps)


# ---------------------------------------------------------------------------
# gates shared by the sweep workloads


def check_table(label: str, rows, p: int) -> list[str]:
    """Ranks are a permutation of 1..2^p, scores are finite and the wide model
    is unbiased (criterion 5) up to WIDE_BIAS_TOL of its variance."""
    errors = []
    ranks = sorted(r.rank for r in rows)
    if ranks != list(range(1, 2**p + 1)):
        errors.append(f"{label}: ranks are not a permutation of 1..{2**p}")
    scores = np.array([r.score for r in rows])
    if not np.all(np.isfinite(scores)):
        errors.append(f"{label}: non-finite scores")
        return errors
    wide = [r for r in rows if r.submodel.is_wide]
    if len(wide) != 1:
        return errors + [f"{label}: {len(wide)} wide-model rows"]
    scale = max(1.0, wide[0].variance)
    if not abs(wide[0].bias2) <= WIDE_BIAS_TOL * scale:
        errors.append(f"{label}: wide-model bias2 {wide[0].bias2} above {WIDE_BIAS_TOL} x {scale}")
    return errors


def max_eigen_jacobian(theta, data, S) -> np.ndarray:
    """Central differences of the top eigenvalue of the inverse of
    slm.observed_info over (rho, sigma2, beta_S).

    The steps are slmfic's (cube root of machine epsilon, shrunk to stay
    inside the rho interval and to keep sigma2 positive): over a
    finite-difference information the quotient is dominated by rounding, so
    only the same steps reproduce it.
    """
    v = theta.to_vector()
    h = _EPS_THIRD * np.maximum(1.0, np.abs(v))
    lo, hi = data.W.rho_interval
    h[0] = min(h[0], 0.49 * (v[0] - lo), 0.49 * (hi - v[0]))
    h[1] = min(h[1], 0.49 * v[1])

    def lam_max(vec):
        info = slm.observed_info(slm.Theta.from_vector(vec), data, S).matrix
        return float(np.max(np.linalg.eigvalsh(np.linalg.inv(info))))

    jac = np.empty(len(v))
    for j in range(len(v)):
        e = np.zeros(len(v))
        e[j] = h[j]
        jac[j] = (lam_max(v + e) - lam_max(v - e)) / (2.0 * h[j])
    return jac[None, :]


def check_fic(label: str, rows, data, spec: FocusSpec) -> list[str]:
    """FIC rows of a few subsets equal rows recomputed with numpy.

    The information is the closed form (reference.information) at the wide
    fit.  For the conditional mean the wide fit is reference.profile_fit and
    the Jacobian (WY_i, 0, x_iS) is exact, so the rows are recomputed from
    scratch.  The max_eigen Jacobian is central differences over slmfic's own
    finite-difference information, which rounding dominates, so it is
    recomputed at slmfic's fits (max_eigen_jacobian); those fits are checked
    against reference.profile_fit and that information against the closed
    form.
    """
    p, n, X, Y = data.p, data.n, data.X, data.Y
    W, spectrum = chain_weights(n)
    WY = W @ Y
    rho, sigma2, beta, _ = profile_fit(X, Y, WY, spectrum)
    wide = SubmodelId.wide(p)
    errors = []
    if spec.kind == "conditional_mean":
        theta_wide = np.r_[rho, sigma2, beta]
        info = information(theta_wide, X, Y, WY, spectrum)
        i = spec.location

        def jacobian(S):
            return np.r_[WY[i], 0.0, X[i, list(S.indices())]][None, :]
    else:
        fit_wide = slm.fit_mle(data, wide, with_info=True)
        theta_wide = fit_wide.theta_hat.to_vector()
        if not abs(theta_wide[0] - rho) <= 1e-6:
            errors.append(f"{label}: wide rho {theta_wide[0]!r}, independent fit {rho!r}")
        info = information(theta_wide, X, Y, WY, spectrum)
        off = np.max(np.abs(fit_wide.info.matrix - info)) / np.max(np.abs(info))
        if not off <= INFO_TOL:
            errors.append(f"{label}: wide information {off:.3e} off the closed form")

        def jacobian(S):
            theta = fit_wide.theta_hat if S.is_wide else slm.fit_mle(data, S, False).theta_hat
            return max_eigen_jacobian(theta, data, S)

    delta = math.sqrt(n) * theta_wide[2:]
    J_wide = jacobian(wide)
    by_mask = {r.submodel.mask: r for r in rows}
    for mask in sorted({0, 1, 1 << (p - 1), wide.mask - 1, wide.mask}):
        S = SubmodelId(mask, p)
        J_S = J_wide if S.is_wide else jacobian(S)
        bias2, variance = fic_terms(J_S, J_wide[:, 2:], info, list(S.indices()), delta)
        row = by_mask[mask]
        tol = FIC_TOL * max(1.0, bias2 + variance)
        if not (abs(row.bias2 - bias2) <= tol and abs(row.variance - variance) <= tol):
            errors.append(f"{label}: {S.label()} bias2, variance ({row.bias2:.6g}, "
                          f"{row.variance:.6g}); recomputed ({bias2:.6g}, {variance:.6g})")
    return errors


def check_risk_identity(label: str, rows, data, scheme: str) -> list[str]:
    """Criterion 4: on a few subsets the sAFIC score plus the shared rho term
    equals the psi-average of pointwise_risk."""
    p, n = data.p, data.n
    fit_wide = slm.fit_mle(data, SubmodelId.wide(p), with_info=True)
    blocks = safic.rho_beta_blocks(fit_wide.info)
    delta = fic.delta_hat(fit_wide)
    if scheme == "uniform":
        psi = safic.psi_uniform(n).psi
    else:
        psi = safic.psi_kernel(data.X, data.X[0], safic.median_bandwidth(data.X)).psi
    WY = data.W.matrix @ data.Y
    shared = float(psi @ (WY * WY)) / blocks.I_rr
    by_mask = {r.submodel.mask: r for r in rows}
    masks = sorted({0, 1, 1 << (p - 1), (1 << p) - 2, (1 << p) - 1})
    errors = []
    for mask in masks:
        S = SubmodelId(mask, p)
        avg = sum(psi[i] * safic.pointwise_risk(i, S, delta, blocks, data) for i in range(n))
        expected = by_mask[mask].score + shared
        if not abs(avg - expected) <= IDENTITY_TOL * max(1.0, abs(expected)):
            errors.append(f"{label}: risk identity off by {avg - expected:.3e} on {S.label()}")
    return errors


def check_identical(results: list[UnitResult]) -> list[str]:
    """Every unit of the run, traced or not, rendered the same output."""
    texts = {r.text for r in results if not r.errors}
    return [] if len(texts) <= 1 else [f"{len(texts)} different outputs across units"]


# ---------------------------------------------------------------------------
# workloads


class McPaper:
    """monte_carlo(SimConfig()): the paper's n = 75, p = 5, 100-rep study."""

    name = "mc_paper"
    kernel = FitKernel

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.cfg = None

    def prepare(self):
        self.cfg = simulate.SimConfig(seed=self.seed, reps=3 if self.tiny else 100)

    def unit(self) -> UnitResult:
        reps = self.cfg.reps
        try:
            report = simulate.monte_carlo(self.cfg, jobs=1)
            text = sio.run_report_to_json(report)
        except Exception as exc:  # a raised study fails every replication
            return UnitResult("", reps, reps, [_error(exc)])
        errors = [f"rep {r}: {m}" for r, m in report.failures]
        return UnitResult(text, reps, len(report.failures), errors, report)

    def check(self, results):
        errors = check_identical(results)
        report = next((r.detail for r in results if r.detail is not None), None)
        if report is None:
            return 1, errors + ["no completed study to check"]
        checks = 2
        if report.reps_completed != self.cfg.reps:
            errors.append(f"{report.reps_completed}/{self.cfg.reps} replications completed")
        elif self.seed == 0 and not self.tiny:
            checks += 1
            for crit, (wide_want, big_want) in FINGERPRINT_SEED0.items():
                counts = report.top1_counts[crit]
                wide = counts.get(31, 0)
                big = sum(c for m, c in counts.items() if bin(m).count("1") >= 4)
                if (wide, big) != (wide_want, big_want):
                    errors.append(f"criterion-1 fingerprint of {crit}: wide {wide}, "
                                  f">=4 variables {big}; expected {wide_want}, {big_want}")
        if report.reps_completed == self.cfg.reps:
            for rep in range(min(ORACLE_REPS, self.cfg.reps)):
                checks += 1
                errors += self._check_aic(rep, report.per_rep_rankings[rep]["AIC"][0])
        return checks, errors

    def _check_aic(self, rep: int, top_mask: int) -> list[str]:
        """The reported AIC winner has the smallest AIC by an independent fit
        of every subset on the replication, regenerated as the study draws it."""
        cfg = self.cfg
        W, spectrum = chain_weights(cfg.n)
        rng = np.random.default_rng([cfg.seed, rep])
        X = rng.standard_normal((cfg.n, cfg.p))
        eps = math.sqrt(cfg.sigma2_true) * rng.standard_normal(cfg.n)
        rhs = X @ np.asarray(cfg.beta_true) + eps
        Y = np.linalg.solve(np.eye(cfg.n) - cfg.rho_true * W, rhs)
        aics = profile_aics(X, Y, W @ Y, spectrum)
        gap = aics[top_mask] - min(aics.values())
        if gap > 1e-6:
            return [f"rep {rep}: AIC winner S{top_mask + 1} is {gap:.3e} "
                    "above the independent minimum"]
        return []


class _ChainSweep:
    """The two n = 75 chain-graph sweep workloads: the sweeps of SWEEPS, as
    (label, FocusSpec or sAFIC weight scheme), on one generated dataset."""

    kernel = FitKernel

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        edges = chain_edges(N_CHAIN)
        beta = np.zeros(self.p)
        beta[: min(self.p, 5)] = PAPER_BETA[: self.p]
        self.A = dense_adjacency(edges, N_CHAIN)
        self.X, self.Y = lag_dataset(rng, edges, N_CHAIN, self.p, beta)

    def _dataset(self):
        W = weights.SpatialWeights.from_adjacency(self.A, row_normalize=True)
        return slm.Dataset(Y=self.Y, X=self.X, W=W)

    def unit(self) -> UnitResult:
        """Every sweep of SWEEPS: a FocusSpec is a fic_table, a weight scheme
        a safic_table."""
        try:
            data = self._dataset()
        except Exception as exc:
            return UnitResult("", len(self.SWEEPS), len(self.SWEEPS), [_error(exc)])
        texts, tables, errors = [], {}, []
        for label, arg in self.SWEEPS:
            try:
                if isinstance(arg, FocusSpec):
                    rows = simulate.fic_table(arg, data)
                else:
                    rows = simulate.safic_table(data, arg)
                texts.append(sio.write_report(rows, None))
                tables[label] = rows
            except Exception as exc:  # a raised sweep is a failed operation
                errors.append(f"{label}: {_error(exc)}")
        return UnitResult("".join(texts), len(self.SWEEPS), len(errors), errors, (data, tables))

    def check(self, results):
        errors = check_identical(results)
        first = next((r.detail for r in results if r.detail is not None and not r.errors), None)
        if first is None:
            return 1, errors + ["no unit completed every sweep"]
        data, tables = first
        checks = 1
        for label, arg in self.SWEEPS:
            rows = tables[label]
            checks += 2
            errors += check_table(label, rows, self.p)
            if isinstance(arg, FocusSpec):
                errors += check_fic(label, rows, data, arg)
            else:
                errors += check_risk_identity(label, rows, data, arg)
        return checks, errors


class SweepP12(_ChainSweep):
    """One n = 75, p = 12 dataset: FIC (conditional mean) and both sAFIC sweeps."""

    name = "sweep_p12"
    SWEEPS = (
        ("fic_mean", FocusSpec("conditional_mean", location=0)),
        ("safic_uniform", "uniform"),
        ("safic_kernel", "kernel"),
    )

    @property
    def p(self):
        return 4 if self.tiny else 12


class MaxvarFic(_ChainSweep):
    """fic_table(FocusSpec("max_eigen")) at n = 75, p = 5 (the CLI's --focus maxvar)."""

    name = "maxvar_fic"
    SWEEPS = (("fic_maxvar", FocusSpec("max_eigen")),)

    @property
    def p(self):
        return 3 if self.tiny else 5


class RegionN3k:
    """A 55 x 55 rook lattice read from files: `slmfic safic --scheme kernel`
    and `slmfic moran`, both with --row-normalize, run through cli.main."""

    name = "region_n3k"
    kernel = EigenKernel
    P = 5
    BETA = (1.0, 0.5, 0.25, 0.0, 0.0)

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.side = 8 if tiny else 55
        self.dir = workdir
        self.weights_path = workdir / "weights.csv"
        self.data_path = workdir / "data.csv"
        self.safic_out = workdir / "safic.json"
        self.moran_out = workdir / "moran.json"

    def prepare(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        n = self.side * self.side
        edges = lattice_edges(self.side)
        rng = np.random.default_rng(self.seed)
        X, Y = lag_dataset(rng, edges, n, self.P, self.BETA)
        with open(self.weights_path, "w") as fh:
            fh.write("i,j,w\n")
            fh.writelines(f"{i},{j},1\n" for i, j in edges.tolist())
        names = ["y"] + [f"x{j + 1}" for j in range(self.P)]
        with open(self.data_path, "w") as fh:
            fh.write(",".join(names) + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in np.c_[Y, X].tolist())
        self.edges, self.Y = edges, Y

    def _args(self, command, out):
        return [command, "--data", str(self.data_path), "--weights", str(self.weights_path),
                "--response", "y", "--row-normalize", "--out", str(out)]

    def unit(self) -> UnitResult:
        texts, errors = [], []
        for argv, out in [
            (self._args("safic", self.safic_out) + ["--scheme", "kernel"], self.safic_out),
            (self._args("moran", self.moran_out), self.moran_out),
        ]:
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback is a failed command too
                errors.append(f"{argv[0]}: {_error(exc)}")
                continue
            if code != 0:
                errors.append(f"{argv[0]}: exit code {code}")
                continue
            texts.append(out.read_text())
        return UnitResult("".join(texts), 2, len(errors), errors)

    def check(self, results):
        errors = check_identical(results)
        if any(r.errors for r in results):
            return 1, errors
        rows = json.loads(self.safic_out.read_text())
        checks = 4
        n_models = 2**self.P
        if len(rows) != n_models or sorted(r["rank"] for r in rows) != list(range(1, n_models + 1)):
            errors.append(f"safic: {len(rows)} rows, expected a ranking of {n_models}")
        if not all(math.isfinite(r["score"]) for r in rows):
            errors.append("safic: non-finite scores")
        errors += self._check_moran(json.loads(self.moran_out.read_text())["I"])
        errors += self._check_log_det()
        return checks, errors

    def _check_moran(self, reported: float) -> list[str]:
        """Moran's I recomputed from the edge list with row-normalized weights."""
        n = self.side * self.side
        src, dst = self.edges[:, 0], self.edges[:, 1]
        deg = np.bincount(src, minlength=n).astype(float)
        z = self.Y - self.Y.mean()
        lag = np.bincount(src, weights=z[dst], minlength=n) / deg
        expected = float(z @ lag) / float(z @ z)  # S0 = n for row-normalized weights
        if not abs(reported - expected) <= IDENTITY_TOL * max(1.0, abs(expected)):
            return [f"moran: I = {reported!r}, independent value {expected!r}"]
        return []

    def _check_log_det(self) -> list[str]:
        """Spectrum and LU log-determinants agree at the fitted rho."""
        data = sio.load_dataset(str(self.data_path), str(self.weights_path), "y",
                                row_normalize=True)
        rho = slm.fit_mle(data, SubmodelId.wide(data.p), with_info=False).theta_hat.rho
        spec = data.W.log_det_factor(rho, backend="spectrum")
        lu = data.W.log_det_factor(rho, backend="lu")
        if not abs(spec - lu) <= 1e-8:
            return [f"log-det backends differ by {spec - lu:.3e} at rho = {rho}"]
        return []


WORKLOADS = {w.name: w for w in (McPaper, SweepP12, MaxvarFic, RegionN3k)}
