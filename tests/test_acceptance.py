"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import time

import numpy as np
import pytest
from scipy.stats import binom, spearmanr

from slmfic import (
    Dataset,
    FocusSpec,
    SimConfig,
    SpatialWeights,
    SubmodelId,
    build_chain_lag1,
    enumerate_submodels,
    fic_table,
    fic_terms,
    fit_mle,
    generate_dataset,
    monte_carlo,
    psi_uniform,
)
from slmfic.fic import m_matrix
from slmfic.focus import eval_focus, jacobian_fd
from slmfic.io import run_report_to_json
from slmfic.safic import g_matrix, pointwise_risk, rho_beta_blocks

from conftest import (
    k_factor_one,
    knn_adjacency,
    oracle_top1_counts,
    random_dataset,
    random_info,
    random_symmetric_adjacency,
    safic_kernel_one,
    score_fd,
)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def n_vars(mask):
    return bin(mask).count("1")


# Top-1 probabilities of (the wide model, any model with >= 4 variables) under
# the default study's data-generating process: n = 75 row-normalized lag-1
# chain, rho = 0.5, beta = (0, 0.2, 0.2, 0, 0), sigma2 = 1, true model {x2, x3}.
# Counted by oracle_top1_counts(SimConfig(reps=5000, seed=1)), 5,000
# replications drawn independently of the seed-0 ones tested below.
DGP_TOP1_PROB = {
    "AIC": (14 / 5000, 172 / 5000),
    "sAFIC1": (123 / 5000, 853 / 5000),
}


def binomial_band(prob, reps, level=0.999):
    """Two-sided band that holds a Binomial(reps, prob) count with probability
    at least `level`."""
    tail = (1.0 - level) / 2.0
    return int(binom.ppf(tail, reps, prob)), int(binom.isf(tail, reps, prob))


def wide_and_big(counts, p):
    """Top-1 counts of the wide model and of models with >= 4 variables."""
    return (
        counts.get(2**p - 1, 0),
        sum(c for m, c in counts.items() if n_vars(m) >= 4),
    )


class TestCriterion1:
    def test_frequency_bands(self):
        cfg = SimConfig(reps=100, seed=0)
        t0 = time.time()
        report_mc = monte_carlo(cfg)
        elapsed = time.time() - t0
        oracle = oracle_top1_counts(cfg)
        ok = report_mc.reps_completed == cfg.reps and elapsed < 600
        details = []
        for crit, probs in DGP_TOP1_PROB.items():
            counts = report_mc.top1_counts[crit]
            same = counts == oracle[crit]
            ok = ok and same
            details.append(f"{crit} top-1 table {'=' if same else '!='} oracle's")
            for label, prob, got, want in zip(
                ("wide", ">=4-variable"),
                probs,
                wide_and_big(counts, cfg.p),
                wide_and_big(oracle[crit], cfg.p),
            ):
                lo, hi = binomial_band(prob, cfg.reps)
                ok = ok and lo <= got <= hi
                details.append(
                    f"{crit} {label} {got}/{cfg.reps} (oracle {want}, "
                    f"99.9% band {lo}-{hi})"
                )
        report(
            1,
            ok,
            f"{report_mc.reps_completed}/{cfg.reps} reps; " + "; ".join(details)
            + f"; runtime {elapsed:.1f}s (need <600s)",
        )


class TestCriterion2:
    def test_score_tracks_realized_error(self):
        cfg = SimConfig(
            n=60, p=4, rho_true=0.4, beta_true=(0.0, 0.4, 0.4, 0.0),
            reps=200, seed=7,
        )
        spec = FocusSpec("conditional_mean", location=0)
        masks = [S.mask for S in enumerate_submodels(4)]
        score_sum = dict.fromkeys(masks, 0.0)
        err_sum = dict.fromkeys(masks, 0.0)
        from slmfic import Theta, build_weights

        W = build_weights(cfg)
        theta_true = Theta(cfg.rho_true, cfg.sigma2_true, np.asarray(cfg.beta_true))
        wide = SubmodelId.wide(4)
        for rep in range(cfg.reps):
            data = generate_dataset(cfg, rep, W)
            rows = fic_table(spec, data)
            mu_true = eval_focus(spec, theta_true, data, wide).value
            for row in rows:
                S = row.submodel
                fit_S = fit_mle(data, S, with_info=False)
                mu_hat = eval_focus(spec, fit_S.theta_hat, data, S).value
                score_sum[S.mask] += row.score
                err_sum[S.mask] += float(np.sum((mu_hat - mu_true) ** 2))
        scores = [score_sum[m] / cfg.reps for m in masks]
        errors = [err_sum[m] / cfg.reps for m in masks]
        corr = float(spearmanr(scores, errors).statistic)
        report(
            2,
            corr > 0.3,
            f"Spearman(mean score, realized MSE) over 16 submodels = {corr:.3f} "
            f"(need >0.3)",
        )


class TestCriterion3:
    def test_mle_consistency(self):
        cfg = SimConfig(
            n=400, p=5, rho_true=0.5, beta_true=(0.0, 0.2, 0.2, 0.0, 0.0),
            reps=50, seed=13,
        )
        from slmfic import build_weights

        W = build_weights(cfg)
        wide = SubmodelId.wide(5)
        rho_err = []
        beta_err = np.zeros(5)
        for rep in range(cfg.reps):
            data = generate_dataset(cfg, rep, W)
            fit = fit_mle(data, wide, with_info=False)
            rho_err.append(abs(fit.theta_hat.rho - 0.5))
            beta_err += np.abs(fit.theta_hat.beta - np.asarray(cfg.beta_true))
        beta_err /= cfg.reps
        mean_rho = float(np.mean(rho_err))
        nz = [1, 2]
        ok = mean_rho < 0.08 and all(beta_err[j] < 0.1 for j in nz)
        report(
            3,
            ok,
            f"n=400, 50 reps: mean|rho_hat-0.5|={mean_rho:.4f} (need <0.08); "
            f"mean beta error on nonzero coords={beta_err[nz].round(4).tolist()} "
            f"(need <0.1 each)",
        )


# Criteria 4-6 run on random symmetric graphs and on k-nearest-neighbour graphs,
# whose row-normalized W is not symmetric and has complex eigenvalues.
class TestCriterion4:
    def test_oracle_equivalences(self):
        self.check(random_symmetric_adjacency, "")

    def test_oracle_equivalences_on_knn_weights(self):
        self.check(knn_adjacency, "kNN weights: ")

    @staticmethod
    def check(adjacency, label):
        rng = np.random.default_rng(404)

        # (a) log-determinant backend agreement
        worst_logdet = 0.0
        for _ in range(100):
            n = int(rng.integers(4, 25))
            A = adjacency(rng, n)
            W = SpatialWeights.from_adjacency(A, row_normalize=True)
            lo, hi = W.rho_interval
            rho = rng.uniform(lo + 1e-3, hi - 1e-3)
            worst_logdet = max(
                worst_logdet,
                abs(
                    W.log_det_factor(rho, backend="spectrum")
                    - W.log_det_factor(rho, backend="lu")
                ),
            )

        data = random_dataset(rng, n=25, p=4, adjacency=adjacency)
        psi = psi_uniform(25)
        blocks = rho_beta_blocks(random_info(rng, 4))
        F = k_factor_one(blocks, data, psi)
        K = F @ F.T

        # (b) K equals the weighted outer-product sum of omega_i = I_br I_rr^{-1} (WY)_i - x_i
        WY = data.W.matrix @ data.Y
        omega = [blocks.I_br[:, 0] / blocks.I_rr * WY[i] - data.X[i] for i in range(25)]
        direct = sum(psi.psi[i] * np.outer(omega[i], omega[i]) for i in range(25))
        k_gap = float(np.max(np.abs(K - direct)))

        # (c) averaged pointwise risk equals score plus the shared rho term
        delta = rng.standard_normal(4)
        shared = float(psi.psi @ (WY * WY)) / blocks.I_rr
        risk_gap = 0.0
        idem_gap = 0.0
        subsets = enumerate_submodels(4)
        scores = np.add(*safic_kernel_one(subsets, delta, blocks.Q_inv, F))
        for S, score in zip(subsets, scores):
            avg = sum(
                psi.psi[i] * pointwise_risk(i, S, delta, blocks, data)
                for i in range(25)
            )
            risk_gap = max(risk_gap, abs(avg - (score + shared)))
            G = g_matrix(blocks, S)
            idem_gap = max(idem_gap, float(np.max(np.abs(G @ G - G))))

        # (e) exact boundary projections
        G_wide = g_matrix(blocks, SubmodelId.wide(4))
        G_narrow = g_matrix(blocks, SubmodelId(0, 4))
        boundary_ok = np.allclose(G_wide, np.eye(4), atol=1e-10) and np.all(
            G_narrow == 0
        )

        ok = (
            worst_logdet < 1e-8
            and k_gap < 1e-10
            and risk_gap < 1e-10
            and idem_gap < 1e-8
            and boundary_ok
        )
        report(
            4,
            ok,
            f"{label}logdet backends {worst_logdet:.2e} (<1e-8); K identity {k_gap:.2e} "
            f"(<1e-10); risk decomposition {risk_gap:.2e} (<1e-10); G idempotence "
            f"{idem_gap:.2e} (<1e-8); boundary projections exact: {boundary_ok}",
        )


class TestCriterion5:
    def test_wide_model_unbiased(self):
        self.check(random_symmetric_adjacency, "")

    def test_wide_model_unbiased_on_knn_weights(self):
        self.check(knn_adjacency, "kNN weights: ")

    @staticmethod
    def check(adjacency, label):
        rng = np.random.default_rng(505)
        data = random_dataset(rng, n=30, p=3, adjacency=adjacency)
        wide = SubmodelId.wide(3)
        fit = fit_mle(data, wide)
        info = random_info(rng, 3, zero_sigma_beta=True)

        # m_wide beta block is the identity
        m_wide = m_matrix(info, wide)
        m_gap = float(np.max(np.abs(m_wide[2:] - np.eye(3))))

        worst = {}
        specs = [
            FocusSpec("conditional_mean", location=4),
            FocusSpec("max_eigen"),
            FocusSpec("beta_coeffs"),
            FocusSpec("spillover"),
        ]
        D_n = rng.standard_normal(3)
        for spec in specs:
            J = eval_focus(spec, fit.theta_hat, data, wide).jacobian
            ((bias2,),), _ = fic_terms([wide], J[None, None], J[None, :, 2:], info.matrix[None],
                                       D_n[None])
            worst[spec.kind] = bias2
        ok = m_gap < 1e-10 and all(b < 1e-10 for b in worst.values())
        report(
            5,
            ok,
            f"{label}wide-model bias2 per focus kind: "
            + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
            + f" (<1e-10 each); m_wide beta block vs identity {m_gap:.2e} (<1e-10)",
        )


class TestCriterion6:
    def test_jacobians_and_scores(self):
        self.check(random_symmetric_adjacency, "")

    def test_jacobians_and_scores_on_knn_weights(self):
        self.check(knn_adjacency, "kNN weights: ")

    @staticmethod
    def check(adjacency, label):
        rng = np.random.default_rng(606)
        worst_jac = 0.0
        for trial in range(50):
            n = int(rng.integers(15, 35))
            p = int(rng.integers(2, 5))
            data = random_dataset(rng, n=n, p=p, adjacency=adjacency)
            S = SubmodelId(int(rng.integers(0, 2**p)), p)
            kind = ("conditional_mean", "beta_coeffs", "spillover")[trial % 3]
            spec = FocusSpec(
                kind,
                location=int(rng.integers(n)) if kind == "conditional_mean" else None,
            )
            lo, hi = data.W.rho_interval
            theta = fit_mle(data, S, with_info=False).theta_hat

            def f(th, spec=spec, data=data, S=S):
                return eval_focus(spec, th, data, S).value

            ev = eval_focus(spec, theta, data, S)
            fd = jacobian_fd(f, theta)
            worst_jac = max(worst_jac, float(np.max(np.abs(ev.jacobian - fd))))

        worst_score = 0.0
        for trial in range(10):
            data = random_dataset(rng, n=50, p=3, adjacency=adjacency)
            for S in (SubmodelId.wide(3), SubmodelId(0, 3), SubmodelId(0b101, 3)):
                fit = fit_mle(data, S, with_info=False)
                g = score_fd(fit.theta_hat, data, S)
                worst_score = max(
                    worst_score, float(np.max(np.abs(g))) / (1 + abs(fit.loglik))
                )
        ok = worst_jac < 1e-6 and worst_score < 1e-4
        report(
            6,
            ok,
            f"{label}analytic vs finite-difference Jacobians, worst gap {worst_jac:.2e} "
            f"(<1e-6 over 50 instances); normalized score at converged fits "
            f"{worst_score:.2e} (<1e-4)",
        )


class TestCriterion7:
    def test_byte_identical_reports(self):
        cfg = SimConfig(
            n=40, p=3, rho_true=0.4, beta_true=(0.0, 0.3, 0.3), reps=6, seed=99
        )
        first = run_report_to_json(monte_carlo(cfg, jobs=1))
        second = run_report_to_json(monte_carlo(cfg, jobs=1))
        parallel = run_report_to_json(monte_carlo(cfg, jobs=2))
        ok = first == second == parallel
        report(
            7,
            ok,
            f"repeat run identical: {first == second}; parallel (2 workers) "
            f"identical to serial: {first == parallel}",
        )
