import numpy as np
import pytest

from slmfic import (
    Dataset,
    SpatialWeights,
    SubmodelId,
    Theta,
    build_chain_lag1,
    concentrated_loglik,
    fit_mle,
    full_loglik,
    jacobian_fd,
    observed_info,
    profile_beta,
    profile_sigma2,
    score_vector,
)
from slmfic.errors import (
    DataFormatError,
    DegenerateVarianceError,
    RankError,
    RhoOutOfRangeError,
)

from conftest import fd_information, random_dataset


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
        z = (np.eye(20) - 0.3 * data.W.matrix) @ data.Y
        direct = np.linalg.solve(data.X.T @ data.X, data.X.T @ z)
        assert np.allclose(profile_beta(0.3, data, S), direct, atol=1e-10)

    def test_sigma2_degenerate(self, rng):
        W = SpatialWeights.from_adjacency(build_chain_lag1(10), row_normalize=True)
        X = rng.standard_normal((10, 2))
        Y = X @ np.array([1.0, 2.0])  # exact fit
        data = Dataset(Y=Y, X=X, W=W)
        with pytest.raises(DegenerateVarianceError):
            profile_sigma2(0.0, data, SubmodelId.wide(2))

    def test_sigma2_classical_at_zero(self, rng):
        data = random_dataset(rng)
        S = SubmodelId.wide(data.p)
        beta = profile_beta(0.0, data, S)
        resid = data.Y - data.X @ beta
        assert profile_sigma2(0.0, data, S) == pytest.approx(
            float(resid @ resid) / data.n, abs=1e-12
        )

    def test_sigma2_direct_oracle(self, rng):
        data = random_dataset(rng)
        S = SubmodelId.wide(data.p)
        rho = 0.25
        z = data.Y - rho * (data.W.matrix @ data.Y)
        resid = z - data.X @ profile_beta(rho, data, S)
        assert profile_sigma2(rho, data, S) == pytest.approx(
            float(resid @ resid) / data.n, abs=1e-10
        )

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

    def test_non_finite_response_named(self, rng):
        data = random_dataset(rng, n=10)
        Y = data.Y.copy()
        Y[4] = np.nan
        with pytest.raises(DataFormatError, match="response nan at row 4"):
            Dataset(Y=Y, X=data.X, W=data.W)

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
    def test_concentrated_equals_full_at_profile(self, rng):
        for _ in range(5):
            data = random_dataset(rng)
            S = SubmodelId.wide(data.p)
            rho = rng.uniform(-0.6, 0.6)
            theta = Theta(rho, profile_sigma2(rho, data, S), profile_beta(rho, data, S))
            assert concentrated_loglik(rho, data, S) == pytest.approx(
                full_loglik(theta, data, S), abs=1e-10
            )

    def test_edge_rho_rejected(self, rng):
        data = random_dataset(rng)
        with pytest.raises(RhoOutOfRangeError):
            concentrated_loglik(1.0, data, SubmodelId.wide(data.p))

    def test_profile_is_max_over_nuisance(self, rng):
        data = random_dataset(rng)
        S = SubmodelId.wide(data.p)
        rho = 0.2
        best = concentrated_loglik(rho, data, S)
        for _ in range(20):
            theta = Theta(
                rho,
                profile_sigma2(rho, data, S) * rng.uniform(0.5, 2.0),
                profile_beta(rho, data, S) + 0.1 * rng.standard_normal(data.p),
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
        g = score_vector(fit.theta_hat, data, fit.submodel)
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
        fit = fit_mle(data, SubmodelId.narrow(data.p), with_info=False)
        assert fit.converged
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
            Y = np.linalg.solve(np.eye(75) - 0.5 * chain75.matrix, X @ beta + eps)
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
    """The closed-form information and score against finite differences of
    full_loglik."""

    @pytest.mark.parametrize("mask", CLOSED_FORM_MASKS)
    def test_information_matches_fd_hessian(self, rng, mask):
        S = SubmodelId(mask, 3)
        for _ in range(5):
            data = random_dataset(rng, n=int(rng.integers(20, 80)), p=3)
            for theta in fitted_and_away(rng, data, S):
                got = observed_info(theta, data, S).matrix
                want = fd_information(theta, data, S)
                assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    @pytest.mark.parametrize("mask", CLOSED_FORM_MASKS)
    def test_score_matches_fd_gradient(self, rng, mask):
        S = SubmodelId(mask, 3)
        for _ in range(5):
            data = random_dataset(rng, n=int(rng.integers(20, 80)), p=3)
            _, theta = fitted_and_away(rng, data, S)
            lo, hi = data.W.rho_interval
            want = jacobian_fd(
                lambda th: full_loglik(th, data, S),
                theta,
                lower=[lo] + [-np.inf] * (len(S) + 1),
                upper=[hi] + [np.inf] * (len(S) + 1),
            )[0]
            assert np.max(np.abs(want)) > 1e-2  # away from the optimum
            got = score_vector(theta, data, S)
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
