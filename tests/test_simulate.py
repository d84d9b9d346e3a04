import dataclasses
import hashlib
import json
import os
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from slmfic import focus, simulate, slm, weights
from slmfic import (
    CriterionSpec,
    Dataset,
    FocusSpec,
    SimConfig,
    SpatialWeights,
    SubmodelId,
    Theta,
    aic,
    build_weights,
    default_criteria,
    enumerate_submodels,
    fic_table,
    fit_mle,
    generate_dataset,
    monte_carlo,
    safic_table,
)
from slmfic.errors import (
    BandwidthError,
    ConfigError,
    ConvergenceError,
    DegenerateVarianceError,
    RankError,
    SingularInformationError,
)
from slmfic.focus import eval_focus
from slmfic.io import run_report_to_json
from slmfic.slm import observed_info

from conftest import fit_each, knn_adjacency, random_dataset, rook_adjacency, sweep_one


def small_config(**kw):
    defaults = dict(
        n=30, p=3, rho_true=0.4, beta_true=(0.0, 0.5, 0.5), reps=3, seed=42
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestConfig:
    def test_beta_length_checked(self):
        with pytest.raises(ConfigError):
            SimConfig(p=3, beta_true=(1.0, 2.0))

    def test_reps_positive(self):
        with pytest.raises(ConfigError):
            small_config(reps=0)

    def test_sigma2_positive(self):
        with pytest.raises(ConfigError):
            small_config(sigma2_true=-1.0)

    def test_rho_admissibility_checked(self):
        cfg = small_config(rho_true=1.5)
        with pytest.raises(ConfigError):
            generate_dataset(cfg, 0)

    def test_rho_admissibility_checked_before_the_study(self):
        # one input error, not a failure of every replication
        with pytest.raises(ConfigError, match="rho_true=1.5"):
            monte_carlo(small_config(rho_true=1.5))

    def test_realized_error_needs_a_fic_criterion(self):
        with pytest.raises(ConfigError, match="track_realized_error"):
            small_config(track_realized_error=True, criteria=(CriterionSpec("aic", "AIC"),))

    def test_criterion_kind_checked(self):
        with pytest.raises(ConfigError):
            CriterionSpec(kind="bic", name="BIC")

    def test_fic_needs_focus(self):
        with pytest.raises(ConfigError):
            CriterionSpec(kind="fic", name="F")

    def test_coeff_subset_checked_before_the_study(self):
        crit = CriterionSpec("fic", "B", focus=FocusSpec("beta_coeffs", coeff_subset=(0, 3)))
        with pytest.raises(ConfigError, match=r"criterion 'B': coeff_subset \[0, 3\] out of range"):
            small_config(criteria=(crit,))

    @pytest.mark.parametrize(
        "p, kernel, message",
        [
            (3, dict(z0=(0.0, 1.0)), "kernel center has 2 entries, X has 3 columns"),
            (3, dict(z0=(0.0, np.inf, 1.0)),
             r"kernel center must be finite, got \[0.0, inf, 1.0\]"),
            (3, dict(bandwidth=0.0), "bandwidth must be finite and positive, got 0.0"),
            (3, dict(bandwidth=-1.0), "bandwidth must be finite and positive, got -1.0"),
            (3, dict(bandwidth=np.inf), "bandwidth must be finite and positive, got inf"),
            (3, dict(bandwidth=np.nan), "bandwidth must be finite and positive, got nan"),
            (0, {}, "the median-distance bandwidth is 0 for p=0; supply a bandwidth"),
        ],
        ids=["z0-length", "z0-inf", "h-zero", "h-negative", "h-inf", "h-nan", "p0-no-h"],
    )
    def test_kernel_criterion_checked_before_the_study(self, p, kernel, message):
        crit = CriterionSpec("safic", "K", scheme="kernel", **kernel)
        with pytest.raises(ConfigError, match=rf"^criterion 'K': {message}$"):
            small_config(p=p, beta_true=(0.0,) * p, criteria=(crit,))

    def test_kernel_criterion_at_p0_with_a_bandwidth_runs(self):
        crit = CriterionSpec("safic", "K", scheme="kernel", z0=(), bandwidth=1.0)
        report = monte_carlo(small_config(p=0, beta_true=(), criteria=(crit,)))
        assert report.failures == [] and report.top1_counts == {"K": {0: 3}}


class TestGeneration:
    def test_same_seed_rep_bit_identical(self):
        cfg = small_config()
        d1 = generate_dataset(cfg, 1)
        d2 = generate_dataset(cfg, 1)
        assert np.array_equal(d1.Y, d2.Y)
        assert np.array_equal(d1.X, d2.X)

    def test_reps_differ(self):
        cfg = small_config()
        d1 = generate_dataset(cfg, 0)
        d2 = generate_dataset(cfg, 1)
        assert not np.array_equal(d1.X, d2.X)

    def test_zero_rho_is_linear_model(self):
        cfg = small_config(rho_true=0.0, sigma2_true=4.0)
        data = generate_dataset(cfg, 0)
        rng = np.random.default_rng([42, 0])
        X = rng.standard_normal((30, 3))
        eps = 2.0 * rng.standard_normal(30)
        assert np.allclose(data.Y, X @ np.array([0.0, 0.5, 0.5]) + eps, atol=1e-12)

    def test_solve_inverts_spatial_filter(self):
        cfg = small_config()
        data = generate_dataset(cfg, 2)
        lhs = (np.eye(30) - 0.4 * data.W.matrix.toarray()) @ data.Y
        rng = np.random.default_rng([42, 2])
        X = rng.standard_normal((30, 3))
        eps = rng.standard_normal(30)
        assert np.allclose(lhs, X @ np.array([0.0, 0.5, 0.5]) + eps, atol=1e-10)

    def test_chain_weights_shape(self):
        W = build_weights(small_config())
        assert W.n == 30
        assert W.row_normalized


class TestMonteCarlo:
    def test_single_rep_frequencies(self):
        report = monte_carlo(small_config(reps=1))
        assert report.reps_completed == 1
        for name in ("FIC1", "sAFIC1", "AIC"):
            counts = report.top1_counts[name]
            assert sum(counts.values()) == 1
            assert all(v in (0, 1) for v in counts.values())

    def test_frequency_conservation(self):
        report = monte_carlo(small_config(reps=5))
        for counts in report.top1_counts.values():
            assert sum(counts.values()) == 5 - len(report.failures)

    def test_rankings_are_permutations(self):
        report = monte_carlo(small_config(reps=2))
        for rankings in report.per_rep_rankings:
            for masks in rankings.values():
                assert sorted(masks) == list(range(8))

    def test_no_covariates(self):
        report = monte_carlo(small_config(p=0, beta_true=(), reps=2))
        assert report.reps_completed == 2
        assert report.top1_counts == {"FIC1": {0: 2}, "sAFIC1": {0: 2}, "AIC": {0: 2}}

    def test_one_covariate(self):
        report = monte_carlo(small_config(p=1, beta_true=(0.5,), reps=2))
        assert report.reps_completed == 2
        for rankings in report.per_rep_rankings:
            assert all(sorted(masks) == [0, 1] for masks in rankings.values())

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match=f"^jobs must be at least 1, got {jobs}$"):
            monte_carlo(small_config(reps=2), jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_input_error_in_a_replication_stops_the_study(self, jobs):
        # more columns than rows: replication 0 raises, it is not a failed replication
        cfg = small_config(n=4, p=5, beta_true=(0.0,) * 5, reps=3)
        with pytest.raises(RankError, match="design matrix X is rank deficient: 5 columns, 4 rows"):
            monte_carlo(cfg, jobs=jobs)

    def test_realized_error_tracked(self):
        cfg = small_config(reps=2, track_realized_error=True)
        report = monte_carlo(cfg)
        assert set(report.realized_mse) == set(range(8))
        assert all(v >= 0 for v in report.realized_mse.values())

    def test_realized_error_max_eigen_truth_is_at_theta_true(self):
        spec = FocusSpec("max_eigen")
        cfg = small_config(
            reps=1, criteria=(CriterionSpec("fic", "F", focus=spec),), track_realized_error=True
        )
        report = monte_carlo(cfg)
        data = generate_dataset(cfg, 0)
        wide = SubmodelId.wide(3)
        fit = fit_mle(data, wide)
        theta_true = Theta(cfg.rho_true, cfg.sigma2_true, np.asarray(cfg.beta_true))
        mu_true = eval_focus(spec, theta_true, data, wide).value
        mu_hat = eval_focus(spec, fit.theta_hat, data, wide).value
        assert report.realized_mse[7] > 0
        assert report.realized_mse[7] == pytest.approx(float(np.sum((mu_hat - mu_true) ** 2)))

    def test_weights_file_matches_the_built_in_chain(self, tmp_path):
        """The 75-unit chain written as an i,j,w edge list runs the same study."""
        path = tmp_path / "chain.csv"
        path.write_text("i,j,w\n" + "".join(f"{i},{i + 1},1\n{i + 1},{i},1\n" for i in range(74)),
                        encoding="utf-8")

        def report(cfg):
            return json.loads(run_report_to_json(monte_carlo(cfg)))

        built_in = report(SimConfig(reps=20))
        from_file = report(SimConfig(reps=20, weights_kind=str(path)))
        for key in ("criteria", "per_rep_top1"):
            assert from_file[key] == built_in[key]

    def test_default_criteria_names(self):
        assert [c.name for c in default_criteria()] == ["FIC1", "sAFIC1", "AIC"]


def ranked_masks(rows):
    return [r.submodel.mask for r in rows]


class TestSweepEngine:
    @pytest.fixture
    def fitted(self, monkeypatch):
        """Masks of the submodels the sweep fits, in call order: the subsets
        passed to simulate.fit_mle, once per dataset of the batch."""
        masks = []
        fit_mle = simulate.fit_mle

        def counting_fit_mle(batch, subsets, with_info=True):
            batch, subsets = list(batch), list(subsets)
            masks.extend(S.mask for _data in batch for S in subsets)
            return fit_mle(batch, subsets, with_info)

        monkeypatch.setattr(simulate, "fit_mle", counting_fit_mle)
        return masks

    @pytest.mark.parametrize(
        "sweep, fits",
        [
            (lambda d: fic_table(FocusSpec("conditional_mean", location=0), d), 1),
            (lambda d: fic_table(FocusSpec("beta_coeffs"), d), 1),
            (lambda d: safic_table(d, "uniform"), 1),
            (lambda d: safic_table(d, "kernel"), 1),
            (lambda d: fic_table(FocusSpec("spillover"), d), 8),
            (lambda d: fic_table(FocusSpec("max_eigen"), d), 8),
        ],
        ids=["fic-mean", "fic-beta", "safic-uniform", "safic-kernel", "fic-spill", "fic-maxvar"],
    )
    def test_fits_per_sweep(self, fitted, sweep, fits):
        rows = sweep(generate_dataset(small_config(), 0))
        assert sorted(r.rank for r in rows) == list(range(1, 9))
        assert len(fitted) == fits
        assert fitted[-1] == 7  # the wide model, always fitted

    def test_fits_per_replication(self, fitted):
        report = monte_carlo(small_config(reps=2))
        assert report.failures == []
        assert fitted == list(range(8)) * 2

    @pytest.mark.parametrize(
        "spec",
        [
            FocusSpec("conditional_mean", location=0),
            FocusSpec("beta_coeffs"),
            FocusSpec("spillover"),
            FocusSpec("max_eigen"),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_one_focus_batch_per_criterion(self, monkeypatch, spec):
        """No sweep calls eval_focus, the one-fit case: each fic criterion is one
        eval_focus_batch call per batch, at the fits the sweep made: the wide
        fits alone in a theta-free focus's table, every fit in a study that
        fits every subset."""
        def refuse(*args, **kwargs):
            raise AssertionError("eval_focus is the one-fit case, not a production path")

        monkeypatch.setattr(focus, "eval_focus", refuse)
        calls = []
        original = simulate.eval_focus_batch

        def counting(focus_spec, batch, subsets, *fits):
            calls.append((focus_spec.kind, len(batch), [S.mask for S in subsets]))
            return original(focus_spec, batch, subsets, *fits)

        monkeypatch.setattr(simulate, "eval_focus_batch", counting)
        at = list(range(8)) if focus.depends_on_theta(spec) else [7]
        fic_table(spec, generate_dataset(small_config(), 0))
        assert calls == [(spec.kind, 1, at)]
        # two replications of n (p + 2) = 30 * 5 inputs, above 2^p (3p + 8) = 8 * 17:
        # batches of 2, 2 and 1 replications
        monkeypatch.setattr(weights, "_CHUNK", 2 * 30 * 5)
        criteria = (CriterionSpec("fic", "F", focus=spec),
                    CriterionSpec("fic", "G", focus=FocusSpec("spillover")),
                    CriterionSpec("safic", "A"))
        for track, truth in ((False, []), (True, [(spec.kind, [7])])):
            calls.clear()
            report = monte_carlo(small_config(reps=5, criteria=criteria,
                                              track_realized_error=track))
            assert report.reps_completed == 5
            assert calls == [call for size in (2, 2, 1)
                             for call in [(spec.kind, size, list(range(8))),
                                          ("spillover", size, list(range(8))),
                                          *((kind, size, masks) for kind, masks in truth)]]

    def test_focus_warnings_are_issued_once_per_sweep(self, monkeypatch):
        data = generate_dataset(small_config(), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning at the default tolerance
            fic_table(FocusSpec("max_eigen"), data)
        monkeypatch.setattr(focus, "_EIGEN_GAP_TOL", np.inf)  # every evaluation is flagged
        with pytest.warns(RuntimeWarning, match="top eigenvalue nearly repeated") as record:
            rows = fic_table(FocusSpec("max_eigen"), data)
        assert len(record) == 1
        assert sorted(r.rank for r in rows) == list(range(1, 9))

    def test_no_finite_differences(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("jacobian_fd is the test oracle, not a production path")

        monkeypatch.setattr(focus, "jacobian_fd", refuse)
        maxvar = FocusSpec("max_eigen")
        rows = fic_table(maxvar, generate_dataset(small_config(), 0))
        assert sorted(r.rank for r in rows) == list(range(1, 9))
        report = monte_carlo(
            small_config(reps=2, criteria=(CriterionSpec("fic", "F", focus=maxvar),))
        )
        assert report.failures == [] and report.reps_completed == 2

    def test_replication_rankings_match_the_tables(self):
        cfg = small_config(
            reps=3,
            criteria=(
                CriterionSpec("fic", "F", focus=FocusSpec("conditional_mean", location=2)),
                CriterionSpec("safic", "U", scheme="uniform"),
                CriterionSpec("safic", "K", scheme="kernel"),
                CriterionSpec("aic", "A"),
            ),
        )
        report = monte_carlo(cfg)
        assert report.failures == []
        W = build_weights(cfg)
        for rep, rankings in enumerate(report.per_rep_rankings):
            data = generate_dataset(cfg, rep, W)
            aics = {
                S.mask: aic(fit_mle(data, S, with_info=False))
                for S in enumerate_submodels(cfg.p)
            }
            assert rankings == {
                "F": ranked_masks(fic_table(cfg.criteria[0].focus, data)),
                "U": ranked_masks(safic_table(data, "uniform")),
                "K": ranked_masks(safic_table(data, "kernel")),
                "A": sorted(aics, key=lambda m: (aics[m], bin(m).count("1"), m)),
            }


ALL_KINDS = (
    CriterionSpec("fic", "mean", focus=FocusSpec("conditional_mean", location=2)),
    CriterionSpec("fic", "beta", focus=FocusSpec("beta_coeffs", coeff_subset=(3, 1))),
    CriterionSpec("fic", "spill", focus=FocusSpec("spillover")),
    CriterionSpec("fic", "maxvar", focus=FocusSpec("max_eigen")),
    CriterionSpec("safic", "U", scheme="uniform"),
    CriterionSpec("safic", "K", scheme="kernel"),
    CriterionSpec("aic", "A"),
)


def table_of(crit, data):
    """The fic_table or safic_table of a fic or safic criterion."""
    if crit.kind == "fic":
        return fic_table(crit.focus, data)
    return safic_table(data, crit.scheme, crit.z0, crit.bandwidth)


def sweep_scores(terms):
    """A criterion's score array from the sweep's terms, summed as _sweep sums them."""
    return terms[0] + terms[1] if len(terms) == 2 else terms[0]


class TestBatchedScoring:
    """The sweep scores every subset of a criterion with one fic_terms or
    safic_terms call and returns the rank order and the terms as arrays;
    fic_table and safic_table build each row with simulate.fic_score or
    simulate.safic_score, the per-row hooks that the benchmark's gates corrupt
    and its tracer counts."""

    def test_one_row_builder_call_per_subset(self, monkeypatch):
        """One hook call per row, in rank order, with the row's SubmodelId and
        its labels; one enumerate_submodels per table, the sweep's."""
        calls = {"fic_score": [], "safic_score": []}
        for name in calls:
            original = getattr(simulate, name)

            def counting(S, bias2, second, labels, *args, _name=name, _original=original):
                assert labels == S.variable_names(data.names)
                calls[_name].append(S.mask)
                return _original(S, bias2, second, labels, *args)

            monkeypatch.setattr(simulate, name, counting)
        enumerated = []
        enumerate_all = simulate.enumerate_submodels
        monkeypatch.setattr(simulate, "enumerate_submodels",
                            lambda p: enumerated.append(p) or enumerate_all(p))
        data = random_dataset(np.random.default_rng(7), n=30, p=4)
        simulate._sweep([data], ALL_KINDS, enumerate_submodels(4))  # the study's path builds no row
        assert calls == {"fic_score": [], "safic_score": []}
        for crit in ALL_KINDS[:-1]:
            name = f"{crit.kind}_score"
            before = len(calls[name])
            rows = table_of(crit, data)
            assert calls[name][before:] == ranked_masks(rows)  # every row, in rank order
            assert sorted(ranked_masks(rows)) == list(range(2**4))
        assert {k: len(v) for k, v in calls.items()} == {"fic_score": 4 * 2**4,
                                                         "safic_score": 2 * 2**4}
        assert enumerated == [4] * len(ALL_KINDS[:-1])

    @pytest.mark.parametrize("names", [(), ("\u00e9", 'a"b', "c,d", "", "x1", "e\\f")],
                             ids=["default-names", "given-names"])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_row_labels_are_the_submodels_variable_names(self, p, names):
        base = random_dataset(np.random.default_rng(p), n=30, p=p)
        data = Dataset(Y=base.Y, X=base.X, W=base.W, names=names[:p])
        assert data.names == (names[:p] or tuple(f"x{j + 1}" for j in range(p)))
        for rows in (fic_table(FocusSpec("conditional_mean", location=0), data),
                     safic_table(data, "uniform")):
            assert sorted(ranked_masks(rows)) == list(range(2**p))
            for r in rows:
                S = SubmodelId(r.submodel.mask, p)
                assert r.submodel == S
                assert r.labels == S.variable_names(data.names)

    def test_every_table_is_built_in_rank_order(self):
        data = random_dataset(np.random.default_rng(10), n=30, p=4)
        tables = sweep_one(data, ALL_KINDS, enumerate_submodels(data.p))
        assert list(tables) == [c.name for c in ALL_KINDS]
        for crit in ALL_KINDS:
            order, terms = tables[crit.name]
            assert len(terms) == (1 if crit.kind == "aic" else 2)
            assert all(t.shape == (2**4,) for t in terms)
            score = sweep_scores(terms)
            assert order == sorted(range(2**4), key=lambda m: (score[m], bin(m).count("1"), m))
            if crit.kind == "aic":
                continue
            rows = table_of(crit, data)
            assert [r.rank for r in rows] == list(range(1, 2**4 + 1))
            assert ranked_masks(rows) == order
            assert [(r.bias2, r.variance, r.score) for r in rows] == [
                (float(terms[0][m]), float(terms[1][m]), float(score[m])) for m in order]

    @pytest.mark.parametrize("name, kind", [("fic_score", "fic"), ("safic_score", "safic")])
    def test_a_corrupted_row_builder_reaches_the_table(self, monkeypatch, name, kind):
        data = random_dataset(np.random.default_rng(8), n=30, p=4)
        crits = [c for c in ALL_KINDS if c.kind == kind]
        clean = [table_of(crit, data) for crit in crits]
        original = getattr(simulate, name)

        def shifted(*args, **kwargs):
            row = original(*args, **kwargs)
            return dataclasses.replace(row, score=row.score + 1e-3)

        monkeypatch.setattr(simulate, name, shifted)
        for crit, rows in zip(crits, clean):
            before = {r.submodel.mask: r.score for r in rows}
            after = {r.submodel.mask: r.score for r in table_of(crit, data)}
            assert after.keys() == before.keys()
            assert all(after[m] == before[m] + 1e-3 for m in before)

    @pytest.mark.parametrize("chunk", [1, 100, 500, None], ids=["1", "100", "500", "default"])
    def test_chunk_size_leaves_rows_bit_identical(self, monkeypatch, chunk):
        """Every array of the sweep, and so every row built from them: each
        dataset of a batch of 3, whose chunks at a small _CHUNK hold part of
        a subset size on every dataset, gives its one-dataset default sweep."""
        first = random_dataset(np.random.default_rng(9), n=30, p=5)
        rng, lag = np.random.default_rng(19), np.eye(30) - 0.3 * first.W.matrix.toarray()
        batch = [first]
        for _ in range(2):
            X = rng.standard_normal((30, 5))
            Y = np.linalg.solve(lag, X @ rng.normal(size=5) + rng.standard_normal(30))
            batch.append(Dataset(Y=Y, X=X, W=first.W))
        submodels = enumerate_submodels(5)
        alone = [sweep_one(data, ALL_KINDS, submodels) for data in batch]
        if chunk is not None:
            monkeypatch.setattr(weights, "_CHUNK", chunk)
        tables, _realized, errors = simulate._sweep(batch, ALL_KINDS, submodels)
        assert errors == [None] * 3
        for r, one in enumerate(alone):
            for crit in ALL_KINDS:
                (orders, terms), (order, terms_one) = tables[crit.name], one[crit.name]
                assert orders[r] == order
                assert [t[r].tobytes() for t in terms] == [t.tobytes() for t in terms_one]


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.permutations(range(4)))
def test_covariate_permutation_permutes_safic_and_aic_tables(seed, perm):
    """Column j of the permuted design is column perm[j] of the original, so
    its subset mask m is the original subset {perm[j] : j in m}: each
    criterion's rank order maps onto the original's and the scores agree."""
    data = random_dataset(np.random.default_rng(seed), n=30, p=4)
    permuted = Dataset(Y=data.Y, X=data.X[:, list(perm)], W=data.W)
    crits = [c for c in ALL_KINDS if c.kind in ("safic", "aic")]
    tables = sweep_one(data, crits, enumerate_submodels(4))
    tables_perm = sweep_one(permuted, crits, enumerate_submodels(4))

    def original_mask(mask):
        return sum(1 << perm[j] for j in range(4) if mask >> j & 1)

    for crit in crits:
        (order, terms), (order_perm, terms_perm) = tables[crit.name], tables_perm[crit.name]
        score, score_perm = sweep_scores(terms), sweep_scores(terms_perm)
        for m in range(2**4):
            assert score_perm[m] == pytest.approx(score[original_mask(m)], rel=1e-10)
        assert [original_mask(m) for m in order_perm] == order


def _property_dataset(graph, seed, p):
    """A row-normalized rook lattice (16, 25 or 36 units) or kNN graph (12-40
    units), its adjacency and a spatial lag dataset on it at rho = 0.4."""
    rng = np.random.default_rng(seed)
    if graph == "rook":
        n, adjacency = int(rng.integers(4, 7)) ** 2, rook_adjacency
    else:
        n, adjacency = int(rng.integers(12, 41)), knn_adjacency
    A = adjacency(rng, n)
    return A, random_dataset(rng, n=n, p=p, rho=0.4, adjacency=lambda rng, n: A)


def _scores(data, location):
    """{criterion name: score array over the masks} of the FIC of the conditional
    mean at location, uniform sAFIC and AIC."""
    kinds = (CriterionSpec("fic", "mean", focus=FocusSpec("conditional_mean", location=location)),
             CriterionSpec("safic", "U", scheme="uniform"), CriterionSpec("aic", "AIC"))
    tables = sweep_one(data, kinds, enumerate_submodels(data.p))
    return {name: sweep_scores(terms) for name, (_order, terms) in tables.items()}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["rook", "knn"]), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=3))
def test_permuting_units_with_w_leaves_fits_and_scores(graph, seed, p):
    """Unit i of the permuted data is unit order[i]: Y, the rows of X and the
    rows and columns of W move together, and the FIC's location with its unit.
    Every subset's rho, sigma^2 and beta, and every score, stay the same;
    scores are compared, not rank orders, so near-ties cannot flip."""
    A, data = _property_dataset(graph, seed, p)
    order = np.random.default_rng(seed + 1).permutation(data.n)
    W = SpatialWeights.from_adjacency(A[np.ix_(order, order)], row_normalize=True)
    permuted = Dataset(Y=data.Y[order], X=data.X[order], W=W)
    subsets = enumerate_submodels(p)
    fits, fits_perm = fit_each(data, subsets), fit_each(permuted, subsets)
    for m, fit in fits.items():
        got, want = fits_perm[m].theta_hat, fit.theta_hat
        assert got.rho == pytest.approx(want.rho, rel=1e-9, abs=1e-12)
        assert got.sigma2 == pytest.approx(want.sigma2, rel=1e-9)
        np.testing.assert_allclose(got.beta, want.beta, rtol=1e-9, atol=1e-12)
    location = int(np.random.default_rng(seed + 2).integers(data.n))
    scores = _scores(data, location)
    scores_perm = _scores(permuted, int(np.argsort(order)[location]))
    for name, score in scores.items():
        np.testing.assert_allclose(scores_perm[name], score, rtol=1e-9,
                                   atol=1e-9 * np.max(np.abs(score)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["rook", "knn"]), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=3), st.floats(min_value=-3.0, max_value=3.0))
def test_scaling_y_scales_fits_and_scores(graph, seed, p, log_c):
    """Y -> cY, c in [1e-3, 1e3]: every subset's rho-hat stays, beta-hat scales
    by c and sigma^2-hat by c^2.  The FIC (conditional mean) and sAFIC scores
    scale by c^2 and AIC shifts by the one constant 2n log c: the information's
    sigma^2 entry scales by 1/c^4, but its certificate reads the Jacobi-scaled
    matrix, which does not move."""
    c = 10.0 ** log_c
    _, data = _property_dataset(graph, seed, p)
    scaled = Dataset(Y=c * data.Y, X=data.X, W=data.W)
    subsets = enumerate_submodels(p)
    fits, fits_scaled = fit_each(data, subsets), fit_each(scaled, subsets)
    for m, fit in fits.items():
        got, want = fits_scaled[m].theta_hat, fit.theta_hat
        assert got.rho == pytest.approx(want.rho, rel=1e-9, abs=1e-12)
        assert got.sigma2 == pytest.approx(c * c * want.sigma2, rel=1e-9)
        np.testing.assert_allclose(got.beta, c * want.beta, rtol=1e-9,
                                   atol=1e-12 * c * np.max(np.abs(want.beta), initial=0))
    scores, scores_scaled = _scores(data, 0), _scores(scaled, 0)
    for name in ("mean", "U"):
        np.testing.assert_allclose(scores_scaled[name], c * c * scores[name], rtol=1e-9,
                                   atol=1e-9 * c * c * np.max(np.abs(scores[name])))
    np.testing.assert_allclose(scores_scaled["AIC"] - scores["AIC"], 2 * data.n * np.log(c),
                               rtol=0, atol=1e-9 * np.max(np.abs(scores["AIC"])))


@pytest.mark.parametrize("seed", range(3))
def test_scaling_y_down_by_1000_scales_the_scores(seed):
    """The scores of test_scaling_y_scales_fits_and_scores at c = 1e-3, on the
    draws where the raw information's condition number, its sigma^2 entry
    scaled by 1/c^4, passes 1e12 (1.0-1.8e12): the certificate, which reads
    the Jacobi-scaled matrix, passes them."""
    data = random_dataset(np.random.default_rng(seed), n=30, p=3)
    scaled = Dataset(Y=1e-3 * data.Y, X=data.X, W=data.W)
    scores, scores_scaled = _scores(data, 0), _scores(scaled, 0)
    for name in ("mean", "U"):
        np.testing.assert_allclose(scores_scaled[name], 1e-6 * scores[name], rtol=1e-9)


class TestReplication:
    """monte_carlo maps one replication function over range(reps): serially,
    or in one contiguous chunk of replications per worker process."""

    def test_study_draws_what_generate_dataset_draws(self, monkeypatch):
        drawn, filters = {}, []
        draw, spatial_filter = simulate._draw, simulate._spatial_filter

        def recording_draw(cfg, rep, W, lu):
            drawn[rep] = data = draw(cfg, rep, W, lu)
            return data

        def recording_filter(cfg, W):
            filters.append(spatial_filter(cfg, W))
            return filters[-1]

        monkeypatch.setattr(simulate, "_draw", recording_draw)
        monkeypatch.setattr(simulate, "_spatial_filter", recording_filter)
        cfg = small_config(reps=4)
        assert monte_carlo(cfg).failures == []
        assert len(filters) == 1  # one factor of I - rho W per study
        assert sorted(drawn) == list(range(4))
        for rep, data in drawn.items():
            alone = generate_dataset(cfg, rep)
            assert np.array_equal(data.X, alone.X) and np.array_equal(data.Y, alone.Y)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_uneven_chunks_match_serial(self, jobs):
        # 7 replications: chunks of 4 + 3 or 3 + 3 + 1
        cfg = small_config(reps=7)
        serial = run_report_to_json(monte_carlo(cfg, jobs=1))
        assert run_report_to_json(monte_carlo(cfg, jobs=jobs)) == serial

    def test_a_failure_in_a_worker_chunk_is_recorded_as_in_serial(self, monkeypatch):
        # the patch reaches the workers because they are forked from this process
        draw = simulate._draw

        def degenerate_rep_5(cfg, rep, W, lu):
            data = draw(cfg, rep, W, lu)
            return Dataset(Y=2.0 * data.X[:, 1], X=data.X, W=W) if rep == 5 else data

        monkeypatch.setattr(simulate, "_draw", degenerate_rep_5)
        cfg = small_config(reps=10)
        serial = monte_carlo(cfg, jobs=1)
        assert [rep for rep, _msg in serial.failures] == [5]
        assert serial.failures[0][1].startswith("DegenerateVarianceError: residual variance")
        assert serial.reps_completed == 9
        for jobs in (2, 3):
            parallel = monte_carlo(cfg, jobs=jobs)
            assert parallel.failures == serial.failures
            assert run_report_to_json(parallel) == run_report_to_json(serial)


    @pytest.mark.parametrize("kind", ["convergence", "information"])
    def test_a_failing_replication_reports_what_its_own_sweep_raises(self, monkeypatch, kind):
        """Replication 5 of 10 fails in its rho search (ConvergenceError) or at
        its wide information (SingularInformationError): the study records the
        error a one-dataset _sweep raises on its data, the other replications
        rank as in a clean study, and 1, 2 or 3 workers give one report."""
        cfg = small_config(reps=10)
        clean = monte_carlo(cfg)
        draw = simulate._draw

        def failing_rep_5(cfg, rep, W, lu):
            data = draw(cfg, rep, W, lu)
            if rep != 5:
                return data
            if kind == "convergence":  # rho-hat near 1: a longer rho search
                return Dataset(Y=data.Y + 100.0, X=data.X, W=W)
            X = data.X.copy()  # x3 within 1e-7 of x2: the scaled information's cond ~ 1e14
            X[:, 2] = X[:, 1] + 1e-7 * X[:, 2]
            return Dataset(Y=data.Y, X=X, W=W)

        W = build_weights(cfg)
        lu = simulate._spatial_filter(cfg, W)
        batch = [failing_rep_5(cfg, rep, W, lu) for rep in range(cfg.reps)]
        if kind == "convergence":
            steps = slm.fit_mle(batch, enumerate_submodels(cfg.p)).steps.max(axis=1)
            enough = int(np.delete(steps, 5).max())
            assert steps[5] > enough
            monkeypatch.setattr(slm, "_MAX_ITER", enough)  # too few for replication 5 only
        _tables, _realized, (error,) = simulate._sweep([batch[5]], cfg.criteria,
                                                   enumerate_submodels(cfg.p))
        expected = ConvergenceError if kind == "convergence" else SingularInformationError
        assert type(error) is expected
        # the patch reaches the workers because they are forked from this process
        monkeypatch.setattr(simulate, "_draw", failing_rep_5)
        serial = monte_carlo(cfg, jobs=1)
        assert serial.failures == [(5, f"{type(error).__name__}: {error}")]
        assert serial.per_rep_rankings == clean.per_rep_rankings[:5] + clean.per_rep_rankings[6:]
        for jobs in (2, 3):
            assert run_report_to_json(monte_carlo(cfg, jobs=jobs)) == run_report_to_json(serial)

    def test_a_replication_failing_twice_reports_its_other_subsets_first(self, monkeypatch):
        """Replication 5 of 10 is drawn without noise at rho = 0.99, so its wide
        fit is degenerate and its other subsets need a longer rho search than any
        other replication: the study records the ConvergenceError of its first
        failing fit in subset order, an other subset's, not the
        DegenerateVarianceError of the wide model, last in mask order."""
        cfg = small_config(reps=10, seed=1)
        draw = simulate._draw

        def failing_rep_5(cfg, rep, W, lu):
            data = draw(cfg, rep, W, lu)
            if rep != 5:
                return data
            A_99 = scipy.sparse.eye_array(cfg.n, format="csc") - 0.99 * W.matrix
            return Dataset(Y=scipy.sparse.linalg.spsolve(A_99, data.X @ [1.0, 0.01, 0.01]),
                           X=data.X, W=W)

        W = build_weights(cfg)
        lu = simulate._spatial_filter(cfg, W)
        batch = [failing_rep_5(cfg, rep, W, lu) for rep in range(cfg.reps)]
        submodels = enumerate_submodels(cfg.p)
        steps = slm.fit_mle(batch, submodels).steps
        enough = int(np.delete(steps, 5, axis=0).max())
        assert steps[5, :-1].max() > enough
        monkeypatch.setattr(slm, "_MAX_ITER", enough)  # too few for replication 5 only
        with pytest.raises(DegenerateVarianceError):
            slm.fit_mle(batch[5], submodels[-1])
        with pytest.raises(ConvergenceError) as first:
            fit_each(batch[5], submodels[:-1])
        expected = f"ConvergenceError: {first.value}"
        _tables, _realized, (error,) = simulate._sweep([batch[5]], cfg.criteria, submodels)
        assert f"{type(error).__name__}: {error}" == expected
        monkeypatch.setattr(simulate, "_draw", failing_rep_5)
        serial = monte_carlo(cfg, jobs=1)
        assert serial.failures == [(5, expected)]
        for jobs in (2, 3):
            assert run_report_to_json(monte_carlo(cfg, jobs=jobs)) == run_report_to_json(serial)

    def test_a_failing_truth_information_stops_its_replication_last(self, monkeypatch):
        """Replication 5 of 10 is drawn with a tenth of the noise, so that at
        theta_true e'e/n is far below sigma2_true / 2 and the max_eigen focus's
        information there is indefinite, while every fit absorbs the noise in
        sigma^2-hat: a tracked study records the SingularInformationError that
        the focus at the truth raises, the untracked sweep ranks the
        replication, and 1, 2 or 3 workers give one report."""
        maxvar = FocusSpec("max_eigen")
        cfg = small_config(reps=10, track_realized_error=True,
                           criteria=(CriterionSpec("fic", "M", focus=maxvar),
                                     CriterionSpec("safic", "U"), CriterionSpec("aic", "A")))
        draw = simulate._draw

        def quiet_rep_5(cfg, rep, W, lu):
            data = draw(cfg, rep, W, lu)
            if rep != 5:
                return data
            mean = data.X @ cfg.beta_true
            A = scipy.sparse.eye_array(cfg.n, format="csc") - cfg.rho_true * W.matrix
            return Dataset(Y=scipy.sparse.linalg.spsolve(A, mean + 0.1 * (A @ data.Y - mean)),
                           X=data.X, W=W)

        W = build_weights(cfg)
        data = quiet_rep_5(cfg, 5, W, simulate._spatial_filter(cfg, W))
        truth = Theta(cfg.rho_true, cfg.sigma2_true, np.asarray(cfg.beta_true))
        with pytest.raises(SingularInformationError) as at_truth:
            eval_focus(maxvar, truth, data, SubmodelId.wide(cfg.p))
        _tables, _realized, (error,) = simulate._sweep([data], cfg.criteria,
                                                       enumerate_submodels(cfg.p))
        assert error is None
        # the patch reaches the workers because they are forked from this process
        monkeypatch.setattr(simulate, "_draw", quiet_rep_5)
        serial = monte_carlo(cfg, jobs=1)
        assert serial.failures == [(5, f"SingularInformationError: {at_truth.value}")]
        assert serial.reps_completed == 9 and set(serial.realized_mse) == set(range(8))
        for jobs in (2, 3):
            assert run_report_to_json(monte_carlo(cfg, jobs=jobs)) == run_report_to_json(serial)


def test_a_failing_subset_information_stops_its_dataset_only(monkeypatch):
    """In a max_eigen sweep, a dataset whose subset information fails its
    certificate reports the first failing subset in mask order, as the one-fit
    path finds it, and the other datasets of the batch rank as they do alone."""
    cfg = small_config()
    W = build_weights(cfg)
    # the second dataset is drawn at rho = -0.8 with beta = (3, 0.5, 0.5): the
    # informations of {x1, x3} and {x1, x2, x3} are worse conditioned than the wide one
    rng = np.random.default_rng(7)
    X = rng.standard_normal((cfg.n, cfg.p))
    Y = np.linalg.solve(np.eye(cfg.n) + 0.8 * W.matrix.toarray(),
                        X @ [3.0, 0.5, 0.5] + rng.standard_normal(cfg.n))
    batch = [generate_dataset(cfg, 1, W), Dataset(Y=Y, X=X, W=W), generate_dataset(cfg, 2, W)]
    submodels = enumerate_submodels(cfg.p)
    fits = fit_mle(batch, submodels, with_info=False)

    def scaled_cond(M):  # what the certificate reads: the Jacobi-scaled condition number
        s = 1.0 / np.sqrt(np.diag(M))
        return np.linalg.cond(s[:, None] * M * s[None, :])

    cond = np.array([[scaled_cond(observed_info(fits.result(r, i).theta_hat, data, S).matrix)
                      for i, S in enumerate(submodels)] for r, data in enumerate(batch)])
    limit = 2.5  # between the subset informations of the second dataset
    assert cond[1, -1] < limit < cond[1].max() and cond[[0, 2]].max() < limit
    first = np.flatnonzero(cond[1] > limit)[0]
    assert first != np.argmax(cond[1])  # the first in mask order, not the worst
    monkeypatch.setattr(slm, "_COND_LIMIT", limit)
    with pytest.raises(SingularInformationError) as one:
        for i, S in enumerate(submodels):
            observed_info(fits.result(1, i).theta_hat, batch[1], S)
    assert str(one.value).startswith(f"information of {submodels[first].label()} ")
    criteria = (CriterionSpec("fic", "M", focus=FocusSpec("max_eigen")),
                CriterionSpec("safic", "U"), CriterionSpec("aic", "A"))
    tables, _realized, errors = simulate._sweep(batch, criteria, submodels)
    assert errors[0] is None and errors[2] is None
    assert type(errors[1]) is SingularInformationError and str(errors[1]) == str(one.value)
    for r in (0, 2):
        alone, _realized, (error,) = simulate._sweep([batch[r]], criteria, submodels)
        assert error is None
        for name, (orders, terms) in tables.items():
            assert orders[r] == alone[name][0][0]
            assert [t[r].tobytes() for t in terms] == [t[0].tobytes() for t in alone[name][1]]


@pytest.mark.parametrize("stage", ["bandwidth", "schur"])
def test_a_failing_safic_stage_stops_its_dataset_only(monkeypatch, stage):
    """The second dataset of a batch of 3 fails in the sAFIC stages: its
    kernel's median bandwidth is 0 (24 of its 30 rows are one row, so most
    row pairs are at distance 0, and X keeps full rank), or its beta Schur
    complement, patched to zero, fails its certificate.  It reports the
    error its one-dataset _sweep raises, and the other datasets, scored
    beside its stand-ins (uniform weights, the identity), rank as alone."""
    rng = np.random.default_rng(23)
    W = random_dataset(rng, n=30, p=3).W
    lag = np.eye(30) - 0.3 * W.matrix.toarray()
    batch = []
    for r in range(3):
        X = rng.standard_normal((30, 3))
        if r == 1 and stage == "bandwidth":
            X[:24] = X[0]  # 276 of the 435 row pairs
        Y = np.linalg.solve(lag, X @ [0.5, 0.5, 0.0] + rng.standard_normal(30))
        batch.append(Dataset(Y=Y, X=X, W=W))
    submodels = enumerate_submodels(3)
    if stage == "schur":  # the wide information, bit for bit the same in any batch, marks it
        target = fit_mle(batch[1], submodels[-1]).info.matrix
        blocks = simulate._rho_beta_blocks

        def singular(info):
            I_rr, I_br, Q_inv = blocks(info)
            Q_inv[(info == target).all(axis=(1, 2))] = 0.0
            return I_rr, I_br, Q_inv

        monkeypatch.setattr(simulate, "_rho_beta_blocks", singular)
    criteria = (CriterionSpec("fic", "F", focus=FocusSpec("conditional_mean", location=0)),
                CriterionSpec("safic", "K", scheme="kernel"), CriterionSpec("safic", "U"),
                CriterionSpec("aic", "A"))
    alone = [simulate._sweep([data], criteria, submodels) for data in batch]
    (error,) = alone[1][2]
    expected = BandwidthError if stage == "bandwidth" else SingularInformationError
    assert type(error) is expected
    tables, _realized, errors = simulate._sweep(batch, criteria, submodels)
    assert type(errors[1]) is expected and str(errors[1]) == str(error)
    for r in (0, 2):
        one, _realized, (error,) = alone[r]
        assert error is None and errors[r] is None
        for name, (orders, terms) in tables.items():
            assert orders[r] == one[name][0][0]
            assert [t[r].tobytes() for t in terms] == [t[0].tobytes() for t in one[name][1]]


def _batch_footprints(monkeypatch):
    """Record, per _sweep call of a study, its batch size, the elements of its
    inputs (each dataset's X, Y and WY) and those of the per-subset arrays the
    sweep keeps: the fits' rho, sigma^2, log-likelihood, steps and beta and
    the regressions' coefficients and Gram matrices."""
    batches = []
    sweep, fit, regressions = simulate._sweep, simulate.fit_mle, slm._regressions

    def counting_sweep(batch, *args):
        batches.append([len(batch), sum(d.X.size + d.Y.size + d.WY.size for d in batch), 0])
        return sweep(batch, *args)

    def counting_fit(*args):
        fits = fit(*args)
        batches[-1][2] += sum(a.size for a in (fits.rho, fits.sigma2, fits.loglik, fits.steps,
                                               fits.beta))
        return fits

    def counting_regressions(*args):
        gram, coef = regressions(*args)
        batches[-1][2] += gram.size + coef.size
        return gram, coef

    monkeypatch.setattr(simulate, "_sweep", counting_sweep)
    monkeypatch.setattr(simulate, "fit_mle", counting_fit)
    monkeypatch.setattr(slm, "_regressions", counting_regressions)
    return batches


@pytest.mark.parametrize("n, p", [(10, 0), (40, 1), (12, 2), (200, 3), (16, 4), (30, 5), (12, 7)])
def test_study_batches_keep_what_they_hold_within_the_chunk(monkeypatch, n, p):
    """At weights._CHUNK = 2^10, each batch of a study's replications holds at
    most _CHUNK elements of inputs and at most _CHUNK of kept per-subset
    arrays, or is one replication (at p = 7 one replication keeps 3,712).
    Batches differ in size by at most one, and are as few as that allows:
    with one batch fewer, the largest would pass _CHUNK."""
    monkeypatch.setattr(weights, "_CHUNK", 1 << 10)
    batches = _batch_footprints(monkeypatch)
    cfg = SimConfig(n=n, p=p, beta_true=(0.3,) * p, reps=10, seed=3)
    assert monte_carlo(cfg).reps_completed == 10
    sizes = [size for size, _inputs, _kept in batches]
    assert sum(sizes) == 10 and max(sizes) - min(sizes) <= 1
    for size, inputs, kept in batches:
        assert inputs == size * n * (p + 2)
        assert size == 1 or max(inputs, kept) <= weights._CHUNK
    size, inputs, kept = max(batches)
    if len(batches) > 1:
        fewer = -(-cfg.reps // (len(batches) - 1))  # the largest of one batch fewer
        assert fewer * max(inputs, kept) > size * weights._CHUNK


def test_the_default_study_makes_two_sweeps(monkeypatch):
    """The default study (n = 75, p = 5, 100 replications) keeps 2^5 (3 * 5 + 8)
    = 736 elements per replication, above n (p + 2) = 525: two even batches
    of 50 under weights._CHUNK = 2^16, where a cap of 89 alone would split
    89 + 11."""
    batches = _batch_footprints(monkeypatch)
    monte_carlo(SimConfig())
    assert [(size, kept) for size, _inputs, kept in batches] == [(50, 50 * 736)] * 2


BATCH_CRITERIA = (
    CriterionSpec("fic", "spill", focus=FocusSpec("spillover")),
    CriterionSpec("safic", "K", scheme="kernel"),
    CriterionSpec("fic", "maxvar", focus=FocusSpec("max_eigen")),
)


@pytest.mark.parametrize("criteria, track", [(default_criteria(), False), (BATCH_CRITERIA, True)],
                         ids=["default", "kernel-spillover-realized"])
def test_batch_size_leaves_the_study_bit_identical(criteria, track):
    """Batches of 1, 7 and 100 replications give one report, and every
    replication's rank orders, term arrays and realized errors are those of
    a one-dataset _sweep on its generate_dataset, byte for byte."""
    cfg = SimConfig(reps=100, criteria=criteria, track_realized_error=track)
    truth = (cfg.rho_true, cfg.sigma2_true, cfg.beta_true) if track else None
    W = build_weights(cfg)
    submodels = enumerate_submodels(cfg.p)
    alone = [simulate._sweep([generate_dataset(cfg, rep)], criteria, submodels, truth)
             for rep in range(cfg.reps)]
    reports = set()
    for size in (1, 7, 100):
        chunks = [range(i, min(i + size, cfg.reps)) for i in range(0, cfg.reps, size)]
        results = [out for reps in chunks for out in simulate._replicate(cfg, W, reps)]
        reports.add(run_report_to_json(simulate._report(cfg, results)))
        for reps in chunks:
            batch = [generate_dataset(cfg, rep, W) for rep in reps]
            tables, realized, errors = simulate._sweep(batch, criteria, submodels, truth)
            assert errors == [None] * len(reps)
            assert realized.shape == (len(reps), len(submodels) if track else 0)
            for r, rep in enumerate(reps):
                one, one_realized, (error,) = alone[rep]
                assert error is None
                assert realized[r].tobytes() == one_realized[0].tobytes()
                for name, (orders, terms) in tables.items():
                    assert orders[r] == one[name][0][0]
                    assert [t[r].tobytes() for t in terms] == [t[0].tobytes() for t in one[name][1]]
    assert reports == {run_report_to_json(monte_carlo(cfg))}


class TestDeterminism:
    def test_repeat_run_identical_json(self):
        cfg = small_config(reps=4)
        r1 = run_report_to_json(monte_carlo(cfg))
        r2 = run_report_to_json(monte_carlo(cfg))
        assert r1 == r2

    def test_parallel_matches_serial(self):
        cfg = small_config(reps=4)
        serial = run_report_to_json(monte_carlo(cfg, jobs=1))
        parallel = run_report_to_json(monte_carlo(cfg, jobs=2))
        assert serial == parallel

    def test_tracked_max_eigen_study_matches_for_any_worker_count(self):
        cfg = small_config(reps=7, track_realized_error=True,
                           criteria=(CriterionSpec("fic", "M", focus=FocusSpec("max_eigen")),
                                     CriterionSpec("aic", "A")))
        serial = run_report_to_json(monte_carlo(cfg, jobs=1))
        assert json.loads(serial)["realized_focus_mse"].keys() == {str(m) for m in range(8)}
        for jobs in (2, 3):
            assert run_report_to_json(monte_carlo(cfg, jobs=jobs)) == serial

    def test_workers_do_not_rebuild_weights(self, monkeypatch):
        # the patch reaches the workers because they are forked from this process
        parent = os.getpid()
        build = simulate.build_weights

        def build_in_parent_only(cfg):
            if os.getpid() != parent:
                raise ConfigError("weights rebuilt in a worker process")
            return build(cfg)

        monkeypatch.setattr(simulate, "build_weights", build_in_parent_only)
        cfg = small_config(reps=4)
        parallel = monte_carlo(cfg, jobs=2)
        assert parallel.failures == []
        assert run_report_to_json(parallel) == run_report_to_json(monte_carlo(cfg, jobs=1))

    def test_seed_changes_output(self):
        r1 = run_report_to_json(monte_carlo(small_config(seed=1)))
        r2 = run_report_to_json(monte_carlo(small_config(seed=2)))
        assert r1 != r2


def test_every_stacked_solve_has_a_column_axis(monkeypatch):
    """Every np.linalg.solve of a batched sweep gives b as many axes as a: numpy
    2 reads a b with one axis fewer as one vector, numpy 1.24 as a stack of
    them."""
    solve = np.linalg.solve
    shapes = []

    def checked(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", checked)
    cfg = small_config(p=4, beta_true=(0.0, 0.5, 0.5, 0.0))
    W = build_weights(cfg)
    batch = [generate_dataset(cfg, rep, W) for rep in range(3)]
    simulate._sweep(batch, ALL_KINDS, enumerate_submodels(4))
    assert shapes and all(len(a) == len(b) for a, b in shapes)


@pytest.mark.parametrize("seed, digest", [(0, "88f4e68d991ba975"), (1, "d353209dfa4004eb")])
def test_the_default_study_report_is_pinned(seed, digest):
    """The default study's report, byte for byte, by the sha256 of its JSON: a
    change to the draws, the fits, the scores or the ranking shows here."""
    text = run_report_to_json(monte_carlo(SimConfig(seed=seed)))
    assert hashlib.sha256(text.encode()).hexdigest().startswith(digest)


LATTICE_STUDIES = [(False, 0.2, "d061f709183009fa"), (True, 0.5, "ed10aff04c7e7b38")]


def lattice_config(monkeypatch, tmp_path, row_normalize, rho_true):
    """A 20-replication study on an 8 x 8 rook lattice read from an i,j,w edge
    list, written under a fixed relative name so that the report, which
    carries the path, has the same bytes in every run."""
    side = 8
    idx = np.arange(side * side).reshape(side, side)
    pairs = [(a, b) for x, y in ((idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :]))
             for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rook.csv").write_text(
        "i,j,w\n" + "".join(f"{i},{j},1\n{j},{i},1\n" for i, j in pairs), encoding="utf-8")
    return SimConfig(n=side * side, p=3, rho_true=rho_true, beta_true=(0.0, 0.5, 0.5), reps=20,
                     seed=3, weights_kind="rook.csv", row_normalize=row_normalize)


@pytest.mark.parametrize("row_normalize, rho_true, digest", LATTICE_STUDIES,
                         ids=["binary", "row-normalized"])
class TestLatticeStudy:
    """The draws of a study solve with one LU factor of I - rho W per batch
    call; on a lattice, whose factor has fill-in, they are spsolve's bits."""

    def test_the_draws_are_spsolves_bit_for_bit(self, monkeypatch, tmp_path, row_normalize,
                                                rho_true, digest):
        cfg = lattice_config(monkeypatch, tmp_path, row_normalize, rho_true)
        drawn, draw = {}, simulate._draw

        def recording_draw(cfg, rep, W, lu):
            drawn[rep] = data = draw(cfg, rep, W, lu)
            return data

        monkeypatch.setattr(simulate, "_draw", recording_draw)
        assert monte_carlo(cfg).failures == []
        assert sorted(drawn) == list(range(cfg.reps))
        W = build_weights(cfg)
        A = scipy.sparse.eye_array(cfg.n, format="csc") - cfg.rho_true * W.matrix
        for rep, data in drawn.items():
            rng = np.random.default_rng([cfg.seed, rep])
            X = rng.standard_normal((cfg.n, cfg.p))
            eps = np.sqrt(cfg.sigma2_true) * rng.standard_normal(cfg.n)
            rhs = X @ np.asarray(cfg.beta_true) + eps
            assert data.X.tobytes() == X.tobytes()
            assert data.Y.tobytes() == scipy.sparse.linalg.spsolve(A, rhs).tobytes()

    def test_two_workers_give_the_serial_bytes(self, monkeypatch, tmp_path, row_normalize,
                                               rho_true, digest):
        """Each worker factors I - rho W itself: a factor cannot be pickled."""
        cfg = lattice_config(monkeypatch, tmp_path, row_normalize, rho_true)
        assert run_report_to_json(monte_carlo(cfg, jobs=2)) == run_report_to_json(monte_carlo(cfg))

    def test_the_report_is_pinned(self, monkeypatch, tmp_path, row_normalize, rho_true, digest):
        cfg = lattice_config(monkeypatch, tmp_path, row_normalize, rho_true)
        text = run_report_to_json(monte_carlo(cfg))
        assert hashlib.sha256(text.encode()).hexdigest().startswith(digest)
