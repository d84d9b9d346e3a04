import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmfic import (
    CriterionSpec,
    Dataset,
    FocusSpec,
    SpatialWeights,
    SubmodelId,
    Theta,
    aic,
    build_chain_lag1,
    enumerate_submodels,
    fic_table,
    fit_mle,
    safic_table,
    slm,
    weights,
)
from slmfic.errors import (
    ConvergenceError,
    DataFormatError,
    DegenerateVarianceError,
    NumericalError,
    RankError,
    RhoOutOfRangeError,
)
from slmfic.slm import full_loglik, observed_info, profile_beta

from conftest import (
    ASYMMETRIC,
    brent_profile_fit,
    fd_information,
    fit_each,
    random_dataset,
    score_fd,
    sweep_one,
)


def zero_w_dataset(rng, n=40, p=3):
    W = SpatialWeights.from_adjacency(np.zeros((n, n)))
    X = rng.standard_normal((n, p))
    Y = X @ np.array([1.0, -0.5, 0.2][:p]) + rng.standard_normal(n)
    return Dataset(Y=Y, X=X, W=W)


class TestProfiles:
    def test_beta_at_zero_is_ols(self, rng):
        data = random_dataset(rng)
        S = SubmodelId.wide(data.p)
        ols, *_ = np.linalg.lstsq(data.X, data.Y, rcond=None)
        assert np.allclose(profile_beta(0.0, data, S), ols, atol=1e-12)

    def test_beta_with_zero_weights(self, rng):
        data = zero_w_dataset(rng)
        S = SubmodelId.wide(data.p)
        assert np.allclose(
            profile_beta(0.7, data, S), profile_beta(0.0, data, S), atol=1e-12
        )

    def test_beta_direct_solve_oracle(self, rng):
        data = random_dataset(rng, n=20, p=2)
        S = SubmodelId.wide(2)
        z = (np.eye(20) - 0.3 * data.W.matrix.toarray()) @ data.Y
        direct = np.linalg.solve(data.X.T @ data.X, data.X.T @ z)
        assert np.allclose(profile_beta(0.3, data, S), direct, atol=1e-10)

    def test_sigma2_degenerate(self, rng):
        W = SpatialWeights.from_adjacency(build_chain_lag1(10), row_normalize=True)
        X = rng.standard_normal((10, 2))
        Y = X @ np.array([1.0, 2.0])  # exact fit
        data = Dataset(Y=Y, X=X, W=W)
        with pytest.raises(DegenerateVarianceError):
            fit_mle(data, SubmodelId.wide(2))

    def test_sigma2_classical_at_zero(self, rng):
        # at rho = 0 the log-determinant vanishes: the OLS log-likelihood
        data = random_dataset(rng)
        S = SubmodelId.wide(data.p)
        beta = profile_beta(0.0, data, S)
        s2 = float(np.sum((data.Y - data.X @ beta) ** 2)) / data.n
        classical = -data.n / 2.0 * (1.0 + np.log(2.0 * np.pi) + np.log(s2))
        assert full_loglik(Theta(0.0, s2, beta), data, S) == pytest.approx(classical, abs=1e-10)

    def test_sigma2_direct_oracle(self, rng):
        # the fit's sigma^2 is the residual mean square at its rho, e = (I - rho W)Y - X beta
        data = random_dataset(rng)
        S = SubmodelId.wide(data.p)
        theta = fit_mle(data, S, with_info=False).theta_hat
        z = data.Y - theta.rho * (data.W.matrix @ data.Y)
        resid = z - data.X @ profile_beta(theta.rho, data, S)
        assert theta.sigma2 == pytest.approx(float(resid @ resid) / data.n, abs=1e-10)

    def test_rank_deficient_design(self, rng):
        W = SpatialWeights.from_adjacency(build_chain_lag1(10), row_normalize=True)
        x = rng.standard_normal(10)
        with pytest.raises(RankError):
            Dataset(Y=rng.standard_normal(10), X=np.column_stack([x, x]), W=W)

    def test_more_columns_than_rows_is_rank_deficient(self, rng):
        # the SVD of a 4 x 5 matrix has only 4 singular values, none of them small
        W = SpatialWeights.from_adjacency(build_chain_lag1(4), row_normalize=True)
        with pytest.raises(RankError, match="5 columns, 4 rows"):
            Dataset(Y=rng.standard_normal(4), X=rng.standard_normal((4, 5)), W=W)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.0, max_value=9.0))
    def test_column_subsets_inherit_the_rank_rule(self, seed, p, log_cond):
        """The singular values of X_S = Q R_S interlace those of X, so when
        Dataset accepts X (cond(X) < 1e10), every R_S that the profile
        regressions decompose has cond(R_S) <= cond(X) up to rounding and passes
        the same rule: no subset is checked again.  cond(X) <= 1e9 here, where
        rounding (about eps cond(X) relative) cannot reach the 1e10 edge."""
        rng = np.random.default_rng(seed)
        n = p + 5
        U = np.linalg.qr(rng.standard_normal((n, p)))[0]
        V = np.linalg.qr(rng.standard_normal((p, p)))[0]
        X = (U * np.logspace(0.0, -log_cond, p)) @ V.T
        W = SpatialWeights.from_adjacency(np.zeros((n, n)))
        data = Dataset(Y=rng.standard_normal(n), X=X, W=W)
        sv = np.linalg.svd(data.X, compute_uv=False)
        R = slm._project([data])[0][0]
        for S in enumerate_submodels(p)[1:]:
            sv_S = np.linalg.svd(R[:, S.indices()], compute_uv=False)
            assert sv_S[0] <= sv[0] * (1.0 + 1e-12)
            assert sv_S[-1] >= sv[-1] * (1.0 - 1e-6)
            assert sv_S[-1] > 1e-10 * sv_S[0]

    def test_regressions_match_lstsq_at_the_rank_rule_edge(self):
        """_regressions against one np.linalg.lstsq (an SVD) per subset on
        designs of cond(X) = 1e9, just inside Dataset's rank rule: the
        coefficients and the residual Gram matrix of [Y, WY] on every X_S agree
        within 1e-7, relative to the coefficients' norm and to [Y, WY]'s norms.
        Here the QR route and the stacked SVD it replaced both read 1.0e-9 and
        5.4e-9; normal equations, whose error grows as cond^2, fail (Cholesky
        finds X_S'X_S not positive definite)."""
        n, p = 40, 4
        W = SpatialWeights.from_adjacency(build_chain_lag1(n), row_normalize=True)
        subsets = enumerate_submodels(p)
        rng = np.random.default_rng(20261020)
        batch = []
        for _ in range(3):
            U = np.linalg.qr(rng.standard_normal((n, p)))[0]
            V = np.linalg.qr(rng.standard_normal((p, p)))[0]
            X = (U * np.logspace(0.0, -9.0, p)) @ V.T
            batch.append(Dataset(Y=10.0 * X @ rng.standard_normal(p) + rng.standard_normal(n),
                                 X=X, W=W))
        gram, coef = slm._regressions(slm._project(batch), subsets)
        for r, data in enumerate(batch):
            Z = np.column_stack((data.Y, data.WY))
            norms = np.linalg.norm(Z, axis=0)
            for i, S in enumerate(subsets):
                cols = list(S.indices())
                b = np.linalg.lstsq(data.X[:, cols], Z, rcond=None)[0]
                e = Z - data.X[:, cols] @ b
                assert np.all(np.abs(gram[r, i] - e.T @ e) <= 1e-7 * np.outer(norms, norms))
                assert np.all(coef[r, i, [j for j in range(p) if j not in cols]] == 0.0)
                if cols:
                    err = np.linalg.norm(coef[r, i, cols] - b, axis=0)
                    assert np.all(err <= 1e-7 * np.linalg.norm(b, axis=0))

    def test_non_finite_response_named(self, rng):
        data = random_dataset(rng, n=10)
        Y = data.Y.copy()
        Y[4] = np.nan
        with pytest.raises(DataFormatError, match="response nan at row 4"):
            Dataset(Y=Y, X=data.X, W=data.W)

    @pytest.mark.parametrize("change, message", [
        ({"X": np.ones(10)}, "X must be 2-dimensional"),
        ({"Y": np.ones(9)}, "dimension mismatch: len(Y)=9, rows(X)=10, n(W)=10"),
        ({"names": ("a",)}, "number of names must match columns of X"),
    ], ids=["1d-X", "length-mismatch", "names-count"])
    def test_malformed_dataset_rejected(self, rng, change, message):
        data = random_dataset(rng, n=10, p=3)
        with pytest.raises(DataFormatError) as exc:
            Dataset(**{"Y": data.Y, "X": data.X, "W": data.W, **change})
        assert str(exc.value) == message

    def test_non_finite_covariate_named(self, rng):
        data = random_dataset(rng, n=10)
        X = data.X.copy()
        X[6, 1] = -np.inf
        with pytest.raises(DataFormatError, match=r"-inf at row 6, column 1 \('x2'\)"):
            Dataset(Y=data.Y, X=X, W=data.W)


    def test_spatial_lag_computed_once_read_only(self, rng):
        data = random_dataset(rng, n=20, p=2)
        assert np.array_equal(data.WY, data.W.matrix @ data.Y)
        with pytest.raises(ValueError):
            data.WY[0] = 0.0


class TestLikelihoods:
    def test_edge_rho_rejected(self, rng):
        data = random_dataset(rng)
        with pytest.raises(RhoOutOfRangeError):
            full_loglik(Theta(1.0, 1.0, np.zeros(data.p)), data, SubmodelId.wide(data.p))

    def test_profile_is_max_over_nuisance(self, rng):
        data = random_dataset(rng)
        S = SubmodelId.wide(data.p)
        rho = 0.2
        beta = profile_beta(rho, data, S)  # the profile sigma^2 is the residual mean square
        s2 = float(np.sum((data.Y - rho * data.WY - data.X @ beta) ** 2)) / data.n
        best = full_loglik(Theta(rho, s2, beta), data, S)
        for _ in range(20):
            theta = Theta(
                rho,
                s2 * rng.uniform(0.5, 2.0),
                beta + 0.1 * rng.standard_normal(data.p),
            )
            assert full_loglik(theta, data, S) <= best + 1e-8

    def test_sigma2_argmax_is_mean_square(self, rng):
        data = random_dataset(rng)
        S = SubmodelId.wide(data.p)
        rho, beta = 0.1, rng.standard_normal(data.p)
        z = data.Y - rho * (data.W.matrix @ data.Y)
        msr = float(np.sum((z - data.X @ beta) ** 2)) / data.n
        ll_star = full_loglik(Theta(rho, msr, beta), data, S)
        for s2 in (0.5 * msr, 2.0 * msr):
            assert full_loglik(Theta(rho, s2, beta), data, S) < ll_star


class TestFit:
    def test_score_small_at_optimum(self, rng):
        data = random_dataset(rng, n=60)
        fit = fit_mle(data, SubmodelId.wide(data.p))
        g = score_fd(fit.theta_hat, data, fit.submodel)
        assert np.max(np.abs(g)) < 1e-4 * (1 + abs(fit.loglik))

    def test_local_maximum(self, rng):
        data = random_dataset(rng, n=50)
        S = SubmodelId.wide(data.p)
        fit = fit_mle(data, S)
        v = fit.theta_hat.to_vector()
        for _ in range(10):
            pert = v + 0.05 * rng.standard_normal(len(v)) * np.maximum(1, np.abs(v))
            pert[1] = abs(pert[1]) + 1e-3
            if not data.W.contains_rho(pert[0]):
                continue
            assert full_loglik(Theta.from_vector(pert), data, S) <= fit.loglik + 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loglik_is_the_full_loglik_at_the_optimum(self, seed):
        data = random_dataset(np.random.default_rng(seed), n=40, p=3)
        for mask in range(8):
            S = SubmodelId(mask, 3)
            fit = fit_mle(data, S, with_info=False)
            oracle = full_loglik(fit.theta_hat, data, S)
            assert abs(fit.loglik - oracle) <= 1e-12 * abs(oracle)

    def test_reduction_to_ols(self, rng):
        data = zero_w_dataset(rng)
        S = SubmodelId.wide(data.p)
        fit = fit_mle(data, S, with_info=False)
        ols, *_ = np.linalg.lstsq(data.X, data.Y, rcond=None)
        assert np.allclose(fit.theta_hat.beta, ols, atol=1e-8)
        resid = data.Y - data.X @ ols
        assert fit.theta_hat.sigma2 == pytest.approx(float(resid @ resid) / data.n, abs=1e-8)

    def test_narrow_model_fits(self, rng):
        data = random_dataset(rng)
        fit = fit_mle(data, SubmodelId(0, data.p), with_info=False)
        assert np.isfinite(fit.loglik)
        assert fit.theta_hat.beta.size == 0

    def test_monotone_nesting(self, rng):
        data = random_dataset(rng, p=3)
        lls = {}
        for mask in range(8):
            S = SubmodelId(mask, 3)
            lls[mask] = fit_mle(data, S, with_info=False).loglik
        for small in range(8):
            for big in range(8):
                if small & big == small:
                    assert lls[small] <= lls[big] + 1e-6

    def test_no_spatial_term_recovered(self):
        # data generated with rho=0: the fitted rho stays near zero on average
        W = SpatialWeights.from_adjacency(build_chain_lag1(200), row_normalize=True)
        errs = []
        for rep in range(50):
            rng = np.random.default_rng([5150, rep])
            X = rng.standard_normal((200, 2))
            Y = X @ np.array([1.0, -0.5]) + rng.standard_normal(200)
            data = Dataset(Y=Y, X=X, W=W)
            errs.append(fit_mle(data, SubmodelId.wide(2), with_info=False).theta_hat.rho)
        assert abs(np.mean(errs)) < 0.15

    def test_chain_rho_recovery(self, chain75):
        rhos = []
        for rep in range(20):
            rng = np.random.default_rng([6021, rep])
            X = rng.standard_normal((75, 5))
            eps = rng.standard_normal(75)
            beta = np.array([0.0, 0.2, 0.2, 0.0, 0.0])
            Y = np.linalg.solve(np.eye(75) - 0.5 * chain75.matrix.toarray(), X @ beta + eps)
            data = Dataset(Y=Y, X=X, W=chain75)
            rhos.append(fit_mle(data, SubmodelId.wide(5), with_info=False).theta_hat.rho)
        assert abs(np.mean(rhos) - 0.5) < 0.1


class TestObservedInfo:
    def test_symmetry_exact(self, rng):
        data = random_dataset(rng)
        fit = fit_mle(data, SubmodelId.wide(data.p))
        assert np.array_equal(fit.info.matrix, fit.info.matrix.T)

    def test_classical_beta_block(self, rng):
        # the beta block of the information is X'X / (n sigma2) for any W
        data = random_dataset(rng, n=100)
        fit = fit_mle(data, SubmodelId.wide(data.p))
        expected = data.X.T @ data.X / (data.n * fit.theta_hat.sigma2)
        block = fit.info.matrix[2:, 2:]
        assert np.allclose(block, expected, rtol=1e-3, atol=1e-5)

    def test_sigma2_beta_block_near_zero(self, rng):
        data = random_dataset(rng, n=80)
        fit = fit_mle(data, SubmodelId.wide(data.p))
        assert np.max(np.abs(fit.info.matrix[1, 2:])) < 5e-3

    def test_positive_definite_at_mle(self, rng):
        data = random_dataset(rng, n=60)
        info = observed_info(
            fit_mle(data, SubmodelId.wide(data.p), with_info=False).theta_hat,
            data,
            SubmodelId.wide(data.p),
        )
        assert np.linalg.eigvalsh(info.matrix)[0] > 0


# wide, narrow and mixed submodels of p = 3
CLOSED_FORM_MASKS = (0b111, 0b000, 0b101)


def fitted_and_away(rng, data, S):
    """The MLE of submodel S and a point well away from it."""
    theta = fit_mle(data, S, with_info=False).theta_hat
    v = theta.to_vector() + 0.3 * rng.standard_normal(len(S) + 2)
    v[0] = np.clip(v[0], -0.8, 0.8)
    v[1] = abs(v[1]) + 0.1
    return theta, Theta.from_vector(v)


class TestClosedForms:
    """The closed-form information against finite differences of full_loglik."""

    @pytest.mark.parametrize("mask", CLOSED_FORM_MASKS)
    def test_information_matches_fd_hessian(self, rng, mask):
        S = SubmodelId(mask, 3)
        for _ in range(5):
            data = random_dataset(rng, n=int(rng.integers(20, 80)), p=3)
            for theta in fitted_and_away(rng, data, S):
                got = observed_info(theta, data, S).matrix
                want = fd_information(theta, data, S)
                assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", sorted(ASYMMETRIC))
    def test_information_matches_fd_hessian_on_complex_spectra(self, rng, kind):
        """H_rho,rho takes the real part of sum g_i^2 over a spectrum with conjugate
        pairs: checked at the fit's sigma^2 and beta with rho across the interval,
        whose ends the finite-difference stencil cannot straddle.  Away from the
        fit the information need not be positive definite, so the closed form is
        read uncertified, from the batch form observed_info slices."""
        for mask in CLOSED_FORM_MASKS:
            S = SubmodelId(mask, 3)
            cols = [0, 1, *(2 + j for j in S.indices())]
            data = asymmetric_dataset(rng, kind)
            fit = fit_mle(data, S, with_info=False).theta_hat
            beta = np.zeros((1, 1, 3))
            beta[0, 0, list(S.indices())] = fit.beta
            lo, hi = data.W.rho_interval
            for rho in lo + (hi - lo) * np.array([0.2, 0.5, 0.8]):
                info = slm._information([data], np.array([[rho]]), np.array([[fit.sigma2]]), beta)
                got = info[0, 0][np.ix_(cols, cols)]
                want = fd_information(Theta(rho=rho, sigma2=fit.sigma2, beta=fit.beta), data, S)
                assert got.dtype == float
                assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


def asymmetric_dataset(rng, kind, rho=0.3):
    """n = 60 on row-normalized kNN weights (k = 4) or on 20 unnormalized directed 3-cycles."""
    return random_dataset(rng, n=60, p=3, rho=rho, adjacency=ASYMMETRIC[kind],
                          row_normalize=kind == "knn")


def search_bracket(W):
    """The rho search's bracket for the weights used here: the admissible
    interval, within a +-1e6 box, shrunk by 1e-6 of its width at both ends."""
    lo, hi = W.rho_interval
    lo, hi = max(lo, -1e6), min(hi, 1e6)
    margin = 1e-6 * (hi - lo)
    return lo + margin, hi - margin


def lag_data(W, X, rho, beta, rng):
    Y = np.linalg.solve(np.eye(W.n) - rho * W.matrix.toarray(), X @ beta + rng.standard_normal(W.n))
    return Dataset(Y=Y, X=X, W=W)


def profile_loglik(data, S, rho):
    """The concentrated log-likelihood of S at each entry of rho, less its
    constant, with numpy alone: log|I - rho W| - (n/2) log e'e, e the
    least-squares residual of (I - rho W) Y on X_S."""
    Xs = data.X[:, S.indices()]
    Z = np.column_stack((data.Y, data.WY))
    e = Z - Xs @ np.linalg.lstsq(Xs, Z, rcond=None)[0] if Xs.shape[1] else Z
    q = np.sum((e[:, :1] - np.multiply.outer(e[:, 1], rho)) ** 2, axis=0)
    return np.log1p(-np.outer(rho, data.W.spectrum)).sum(axis=1).real - 0.5 * data.n * np.log(q)


def complete_graph_data(seed, n=30, rho=-5.0):
    """Row-normalized complete graph: spectrum {1, -1/(n-1)}, so rho's interval
    is clipped to (-1, 1) with no singularity at -1.  Data drawn at rho = -5
    leave the profile score negative over the whole bracket."""
    rng = np.random.default_rng(seed)
    W = SpatialWeights.from_adjacency(np.ones((n, n)) - np.eye(n), row_normalize=True)
    return lag_data(W, rng.standard_normal((n, 4)), rho, np.array([1.0, 0.5, 0.0, 0.0]), rng)


def near_boundary_chain_data(seed, n=200, rho=0.999):
    rng = np.random.default_rng(seed)
    W = SpatialWeights.from_adjacency(build_chain_lag1(n), row_normalize=True)
    return lag_data(W, rng.standard_normal((n, 4)), rho, np.array([1.0, 0.5, 0.0, 0.0]), rng)


def aic_order(logliks):
    aics = {m: -2.0 * ll + 2.0 * (bin(m).count("1") + 2) for m, ll in logliks.items()}
    return sorted(aics, key=lambda m: (aics[m], bin(m).count("1"), m))


class TestFitSubsets:
    """fit_mle's batch form against the Brent-plus-grid oracle of conftest on every subset."""

    def check_against_oracle(self, data, ll_rtol=1e-12):
        lo, hi = search_bracket(data.W)
        fits = fit_each(data, enumerate_submodels(data.p))
        oracle = {}
        for S in enumerate_submodels(data.p):
            rho, s2, beta, ll = brent_profile_fit(
                data.X[:, S.indices()], data.Y, data.WY, data.W.spectrum, lo, hi
            )
            fit = fits[S.mask]
            oracle[S.mask] = ll
            assert abs(fit.theta_hat.rho - rho) <= 1e-7, S
            if fit.theta_hat.rho in (lo, hi):
                # Brent stops ~1.5e-8 inside a bound, where the likelihood is lower
                assert fit.loglik >= ll, S
            else:
                assert abs(fit.loglik - ll) <= ll_rtol * abs(ll), S
        assert aic_order({m: f.loglik for m, f in fits.items()}) == aic_order(oracle)
        return fits

    @pytest.mark.parametrize("rho", [0.5, -0.6])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_oracle(self, seed, rho):
        self.check_against_oracle(random_dataset(np.random.default_rng(seed), n=40, p=4, rho=rho))

    @pytest.mark.parametrize("rho", [0.5, -0.6])
    @pytest.mark.parametrize("seed", range(3))
    def test_knn_weights_match_the_oracle(self, seed, rho):
        self.check_against_oracle(asymmetric_dataset(np.random.default_rng(seed), "knn", rho))

    @pytest.mark.parametrize("seed, row_normalize", [
        pytest.param(seed, row_normalize, id=f"{seed}-{'normalized' if row_normalize else 'raw'}")
        for seed in range(100, 110) for row_normalize in (True, False)])
    def test_directed_cycles_match_the_oracle(self, seed, row_normalize):
        """20 disjoint directed 3-cycles, row-normalized (interval (-1, 1)) or raw
        ((-2, 1), its lower end set by the pair -1/2 +- i sqrt(3)/2, past which
        |I - rho*W| = (1 - rho^3)^20 stays positive).  Re log(1 - rho*w) is not
        concave for a non-real w, so the profile likelihood can have two peaks
        (raw, seed 104, true rho -0.9, S5 has a local maximum 0.19 below the
        global one), which the grid that brackets every search tells apart.  For
        five true rho, every subset's fit against the oracle: where rho-hat
        differs, the maxima tie (the likelihood of the empty model S1 is the
        same at rho and 1/rho); a raw fit whose maximum is the lower end raises
        ConvergenceError there, where the oracle stops too."""
        rng = np.random.default_rng(seed)
        for true_rho in (0.9, 0.5, 0.0, -0.5, -0.9):
            data = random_dataset(rng, n=60, p=3, rho=true_rho, adjacency=ASYMMETRIC["cycles"],
                                  row_normalize=row_normalize)
            lo, hi = search_bracket(data.W)
            for S in enumerate_submodels(3):
                rho, _, _, ll = brent_profile_fit(data.X[:, S.indices()], data.Y, data.WY,
                                                  data.W.spectrum, lo, hi)
                try:
                    fit = fit_mle(data, S, with_info=False)
                except ConvergenceError as error:
                    assert not row_normalize and error.best_rho == lo and rho - lo <= 1e-7, S
                    continue
                if fit.theta_hat.rho in (lo, hi):
                    assert abs(fit.theta_hat.rho - rho) <= 1e-7 and fit.loglik >= ll, S
                else:
                    assert abs(fit.loglik - ll) <= 1e-10 * abs(ll), (true_rho, S)
                    assert abs(fit.theta_hat.rho - rho) <= 1e-7 or S.mask == 0, (true_rho, S)

    @pytest.mark.parametrize("row_normalize", [True, False], ids=["normalized", "raw"])
    @pytest.mark.parametrize("seed", range(5))
    def test_a_maximum_past_the_lower_end(self, seed, row_normalize):
        """Data drawn at rho = -5, sigma^2 = 0.01, on directed 3-cycles, whose row
        sums are 1: the likelihood of the wide model rises to the lower end (that of a narrow
        one has a twin maximum near -1/5).  Row-normalized, that end is the clip
        at -1, and rho-hat is the end, after no step, as for the complete graph;
        raw, it is the end -2 that the complex pair sets, and the fit raises
        ConvergenceError there rather than report a maximum the interval cuts off."""
        data = random_dataset(np.random.default_rng(seed), n=60, p=3, rho=-5.0, sigma2=0.01,
                              adjacency=ASYMMETRIC["cycles"], row_normalize=row_normalize)
        lo, hi = search_bracket(data.W)
        wide = SubmodelId.wide(3)
        assert data.W.complex_lower_end is not row_normalize
        rho, _, _, ll = brent_profile_fit(data.X, data.Y, data.WY, data.W.spectrum, lo, hi)
        assert rho - lo <= 1e-7
        if row_normalize:
            fit = fit_mle(data, wide, with_info=False)
            assert fit.theta_hat.rho == lo and fit.iterations == 0 and fit.loglik >= ll
            return
        with pytest.raises(ConvergenceError, match=r"^rho search for submodel S8 ended at -2, "
                           r"the lower end of the rho interval that complex eigenvalues set$") as exc:
            fit_mle(data, wide, with_info=False)
        assert exc.value.best_rho == lo

    @pytest.mark.parametrize("seed", range(3))
    def test_near_boundary_chain(self, seed):
        # Y is of order 1 / (1 - rho): a, b and c are ~7e6 while q(rho-hat) is ~200, so
        # q and both log-likelihoods carry ~1e-11 relative rounding here
        data = near_boundary_chain_data(seed)
        fits = self.check_against_oracle(data, ll_rtol=1e-10)
        _, hi = search_bracket(data.W)
        # the score changes sign just below the bound, so the root is found, not the bound
        for f in fits.values():
            assert 0.99 < f.theta_hat.rho < hi and f.iterations > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_bound_when_the_score_keeps_its_sign(self, seed):
        data = complete_graph_data(seed)
        lo, _ = search_bracket(data.W)
        fits = self.check_against_oracle(data)
        for f in fits.values():
            assert f.theta_hat.rho == lo and f.iterations == 0

    @pytest.mark.parametrize("end", ["upper", "lower"])
    @pytest.mark.parametrize("seed", range(3))
    def test_an_end_whose_score_points_inward_brackets_its_cell(self, seed, end):
        """Y shifted by 50 (by +-150, alternating) on a row-normalized chain, far
        from what X explains, puts every subset's rho-hat in the grid's last
        cell at the upper (lower) end: the profile likelihood is higher at that
        end than at any other grid point, but the score there points inward,
        so the end is not rho-hat: its cell brackets the search, and every fit
        matches the oracle after at least one step."""
        rng = np.random.default_rng(seed)
        W = SpatialWeights.from_adjacency(build_chain_lag1(75), row_normalize=True)
        X = rng.standard_normal((75, 2))
        shift = 50.0 if end == "upper" else 150.0 * (-1.0) ** np.arange(75)
        data = Dataset(Y=lag_data(W, X, 0.5, np.array([1.0, 0.5]), rng).Y + shift, X=X, W=W)
        lo, hi = search_bracket(W)
        grid = np.linspace(hi, lo, slm._GRID)
        best = 0 if end == "upper" else slm._GRID - 1
        cell = grid[[1, 0]] if end == "upper" else grid[[-1, -2]]
        for mask, fit in self.check_against_oracle(data).items():
            assert np.argmax(profile_loglik(data, SubmodelId(mask, 2), grid)) == best
            assert fit.iterations > 0 and cell[0] < fit.theta_hat.rho < cell[1]

    def test_zero_weights_is_ols(self, rng):
        data = zero_w_dataset(rng, p=3)
        _, hi = search_bracket(data.W)
        n = data.n
        fits = fit_each(data, enumerate_submodels(3))
        for S in enumerate_submodels(3):
            fit = fits[S.mask]
            Xs = data.X[:, S.indices()]
            ols = np.linalg.lstsq(Xs, data.Y, rcond=None)[0]
            rss = float(np.sum((data.Y - Xs @ ols) ** 2))
            assert np.allclose(fit.theta_hat.beta, ols, rtol=1e-12, atol=1e-14)
            assert fit.theta_hat.sigma2 == pytest.approx(rss / n, rel=1e-12)
            ll = -n / 2.0 * (1.0 + np.log(2.0 * np.pi) + np.log(rss / n))
            assert fit.loglik == pytest.approx(ll, rel=1e-12)
            # the score is identically zero: the upper bound, after no step
            assert fit.theta_hat.rho == hi and fit.iterations == 0

    def test_response_in_the_span_of_x_names_the_first_subset(self, rng):
        W = SpatialWeights.from_adjacency(build_chain_lag1(30), row_normalize=True)
        X = rng.standard_normal((30, 4))
        data = Dataset(Y=2.0 * X[:, 1], X=X, W=W)
        with pytest.raises(DegenerateVarianceError, match="below floor for submodel S3$"):
            fit_each(data, enumerate_submodels(4))
        assert fit_each(data, [SubmodelId(0, 4), SubmodelId(1, 4)])  # x2 excluded: no error

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda d: fic_table(FocusSpec("conditional_mean", location=0), d),
            lambda d: fic_table(FocusSpec("spillover"), d),
            lambda d: safic_table(d),
            lambda d: sweep_one(d, (CriterionSpec("aic", "A"),), enumerate_submodels(d.p)),
        ],
        ids=["fic-mean", "fic-spill", "safic", "aic"],
    )
    @pytest.mark.parametrize("column", [1, None], ids=["x2", "all"])
    def test_sweep_error_class_on_degenerate_data(self, rng, sweep, column):
        W = SpatialWeights.from_adjacency(build_chain_lag1(30), row_normalize=True)
        X = rng.standard_normal((30, 4))
        Y = 2.0 * X[:, column] if column is not None else X @ np.array([1.0, 2.0, -1.0, 0.5])
        with pytest.raises(DegenerateVarianceError):
            sweep(Dataset(Y=Y, X=X, W=W))

    def test_non_convergence_raises(self, rng, monkeypatch):
        data = random_dataset(rng, n=40, p=2)
        monkeypatch.setattr(slm, "_MAX_ITER", 2)
        lo, hi = search_bracket(data.W)
        with pytest.raises(ConvergenceError, match="rho search for submodel S1 did not converge") \
                as exc:
            fit_each(data, enumerate_submodels(2))
        assert lo < exc.value.best_rho < hi

    def test_a_search_that_converges_on_its_last_step_is_a_fit(self, rng, monkeypatch):
        data = random_dataset(rng, n=40, p=2)
        fits = fit_each(data, enumerate_submodels(2))
        monkeypatch.setattr(slm, "_MAX_ITER", max(f.iterations for f in fits.values()))
        again = fit_each(data, enumerate_submodels(2))
        assert [(f.theta_hat.rho, f.iterations) for f in again.values()] == \
            [(f.theta_hat.rho, f.iterations) for f in fits.values()]

    @pytest.mark.parametrize("chunk", [1, 60, 1 << 16])
    def test_the_first_chunk_of_the_search_fails_first(self, rng, monkeypatch, chunk):
        """Y drawn without noise at rho = 0.99: the wide fit is degenerate and no
        other converges in one step.  The first failing fit in subset order
        gives the error, whatever the pieces of the search's spectrum passes:
        at n = 30 a _CHUNK of 1 puts one fit in a piece, 60 two and 2^16 all
        three."""
        W = SpatialWeights.from_adjacency(build_chain_lag1(30), row_normalize=True)
        X = rng.standard_normal((30, 3))
        Y = np.linalg.solve(np.eye(30) - 0.99 * W.matrix.toarray(), X @ [1.0, 0.01, 0.01])
        data = Dataset(Y=Y, X=X, W=W)
        monkeypatch.setattr(slm, "_MAX_ITER", 1)
        monkeypatch.setattr(weights, "_CHUNK", chunk)
        with pytest.raises(NumericalError) as exc:
            fit_each(data, [SubmodelId(1, 3), SubmodelId(2, 3), SubmodelId.wide(3)])
        assert f"{type(exc.value).__name__}: {exc.value}".startswith(
            "ConvergenceError: rho search for submodel S2 did not converge")

    @pytest.mark.parametrize("chunk", [1, 100, 1 << 16])
    def test_each_fit_is_independent_of_the_batch(self, rng, monkeypatch, chunk):
        """fit_mle, the one-subset call, and any pieces of the spectrum passes
        and chunks of the regressions give every subset the same fit, bit for bit."""
        data = random_dataset(rng, n=40, p=4)
        alone = {S.mask: fit_mle(data, S, with_info=False) for S in enumerate_submodels(4)}
        monkeypatch.setattr(weights, "_CHUNK", chunk)
        batch = fit_each(data, enumerate_submodels(4)[::-1])
        assert list(batch) == list(range(15, -1, -1))
        for mask, fit in batch.items():
            one = alone[mask]
            assert fit.theta_hat.rho == one.theta_hat.rho
            assert fit.theta_hat.sigma2 == one.theta_hat.sigma2
            assert np.array_equal(fit.theta_hat.beta, one.theta_hat.beta)
            assert fit.loglik == one.loglik and fit.iterations == one.iterations
            assert aic(fit) == aic(one)

    def test_batch_iterations_count_every_search_step(self, rng):
        """Fits.iterations, which the benchmark's slm.fit_mle.nfev sums, is the
        sum of the one-fit FitResult.iterations."""
        W = random_dataset(rng, n=40, p=3).W
        batch = [Dataset(Y=rng.standard_normal(40), X=rng.standard_normal((40, 3)), W=W)
                 for _ in range(3)]
        fits = fit_mle(batch, enumerate_submodels(3), with_info=False)
        assert fits.iterations > 0
        assert fits.iterations == sum(fit_mle(data, S, with_info=False).iterations
                                      for data in batch for S in enumerate_submodels(3))

    @pytest.mark.parametrize("other", ["W", "p"])
    def test_a_batch_shares_one_weights_and_p(self, rng, other):
        data = random_dataset(rng, n=30, p=3)
        odd = (random_dataset(rng, n=30, p=3) if other == "W"
               else Dataset(Y=data.Y, X=data.X[:, :2], W=data.W))
        with pytest.raises(ValueError, match="must share one SpatialWeights and p"):
            fit_mle([data, odd], [SubmodelId.wide(3)])


def _gather_cases():
    """The index forms the stacked stages pass to slm._gather, on 3 datasets,
    p = 4 and a chunk of the size-2 subsets: (M shape, index)."""
    R, p, q, d = 3, 4, 6, 2
    ((idx, cols),) = [g for g in slm._size_groups(enumerate_submodels(p), 1, R)
                      if g[1].shape[1] == 2]
    ii = np.column_stack((np.zeros_like(idx), np.ones_like(idx), cols + 2))
    return {
        "regressions-R": ((R, p, p), (np.arange(p)[None, :, None], cols[:, None])),
        "safic-rows": ((R, p, p), (cols,)),
        "safic-blocks": ((R, p, p), (cols[:, :, None], cols[:, None])),
        "fic-B": ((R, q, q), (ii, slice(2, None))),
        "fic-J": ((R, 16, d, q), (idx[:, None, None], np.arange(d)[:, None], ii[:, None])),
        "fic-I_S": ((R, q, q), (ii[:, :, None], ii[:, None])),
        "max-eigen-I_S": ((R, 16, q, q), (idx[:, None, None], ii[:, :, None], ii[:, None])),
    }


@pytest.mark.parametrize("name", list(_gather_cases()))
def test_gather_gives_each_dataset_its_own_contiguous_block(name):
    """Each dataset's part of _gather(M, *index) is M[r][index], C-contiguous
    with its strides, as a one-dataset stage would index it: BLAS and LAPACK
    then see the same layout in any batch.  A leading slice, M[:, *index],
    gives the same values in another layout."""
    shape, index = _gather_cases()[name]
    M = np.arange(np.prod(shape), dtype=float).reshape(shape)
    out = slm._gather(M, *index)
    assert out.shape[0] == shape[0]
    for r in range(shape[0]):
        one = M[r][index]
        assert out[r].flags.c_contiguous and one.flags.c_contiguous
        assert out[r].strides == one.strides
        assert np.array_equal(out[r], one)
