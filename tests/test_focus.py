import tracemalloc

import numpy as np
import pytest

from slmfic import (
    Dataset,
    FocusSpec,
    SubmodelId,
    Theta,
    enumerate_submodels,
    fic_table,
    fic_terms,
    fit_mle,
)
from slmfic import focus
from slmfic.errors import FocusSpecError
from slmfic.focus import (
    depends_on_theta,
    eval_focus,
    eval_focus_batch,
    jacobian_fd,
    wide_beta_jacobian,
)

from conftest import closed_form_information, random_dataset


def random_theta(rng, data, S):
    lo, hi = data.W.rho_interval
    return Theta(
        rho=rng.uniform(max(lo, -0.8) * 0.5, min(hi, 0.8) * 0.5),
        sigma2=rng.uniform(0.5, 2.0),
        beta=rng.standard_normal(len(S)),
    )


def embedded(spec, data, S):
    """Focus as a function of theta_S only, for the finite-difference oracle."""

    def f(theta):
        return eval_focus(spec, theta, data, S).value

    return f


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(FocusSpecError):
            FocusSpec(kind="posterior_mode")

    def test_mean_requires_location(self):
        with pytest.raises(FocusSpecError):
            FocusSpec(kind="conditional_mean")

    def test_location_out_of_range(self, rng):
        data = random_dataset(rng, n=10)
        spec = FocusSpec(kind="conditional_mean", location=10)
        S = SubmodelId.wide(data.p)
        with pytest.raises(FocusSpecError):
            eval_focus(spec, random_theta(rng, data, S), data, S)

    def test_negative_coeff_index_rejected(self):
        # Python indexing would read beta[-1] and give every submodel a zero row
        with pytest.raises(FocusSpecError, match="negative"):
            FocusSpec("beta_coeffs", coeff_subset=(0, -1))

    def test_coeff_index_out_of_range(self, rng):
        data = random_dataset(rng, n=10, p=2)
        S = SubmodelId.wide(data.p)
        with pytest.raises(FocusSpecError, match="out of range for p=2"):
            eval_focus(FocusSpec("beta_coeffs", coeff_subset=(5,)), random_theta(rng, data, S),
                       data, S)


class TestDependsOnTheta:
    """depends_on_theta is true exactly for the kinds whose Jacobian moves with theta_S."""

    @pytest.mark.parametrize(
        "spec",
        [
            FocusSpec("conditional_mean", location=3),
            FocusSpec("beta_coeffs"),
            FocusSpec("beta_coeffs", coeff_subset=(0, 2)),
            FocusSpec("spillover"),
            FocusSpec("max_eigen"),
        ],
        ids=lambda spec: f"{spec.kind}-{spec.coeff_subset}",
    )
    def test_jacobian_constant_iff_theta_free(self, rng, spec):
        data = random_dataset(rng, n=30, p=3)
        S = SubmodelId.from_indices([0, 2], 3)
        theta = fit_mle(data, S, with_info=False).theta_hat
        moved = Theta(theta.rho + 0.05, 1.2 * theta.sigma2, theta.beta + 0.1)
        J = eval_focus(spec, theta, data, S).jacobian
        J_moved = eval_focus(spec, moved, data, S).jacobian
        assert np.array_equal(J, J_moved) == (not depends_on_theta(spec))


class TestAnalyticJacobians:
    """Analytic Jacobians must match the central-difference oracle."""

    @pytest.mark.parametrize("kind", ["conditional_mean", "beta_coeffs", "spillover"])
    def test_matches_fd_over_random_instances(self, kind):
        rng = np.random.default_rng(777)
        for trial in range(50):
            n = int(rng.integers(15, 35))
            p = int(rng.integers(2, 5))
            data = random_dataset(rng, n=n, p=p)
            S = SubmodelId(int(rng.integers(0, 2**p)), p)
            spec = FocusSpec(
                kind, location=int(rng.integers(n)) if kind == "conditional_mean" else None
            )
            theta = random_theta(rng, data, S)
            ev = eval_focus(spec, theta, data, S)
            fd = jacobian_fd(embedded(spec, data, S), theta)
            assert np.max(np.abs(ev.jacobian - fd)) < 1e-6

    def test_mean_value(self, rng):
        data = random_dataset(rng, n=12, p=2)
        S = SubmodelId.wide(2)
        theta = Theta(0.4, 1.0, np.array([1.0, -2.0]))
        spec = FocusSpec("conditional_mean", location=3)
        ev = eval_focus(spec, theta, data, S)
        wy = float(data.W.matrix.toarray()[3] @ data.Y)
        assert ev.value[0] == pytest.approx(0.4 * wy + data.X[3] @ theta.beta, abs=1e-12)

    def test_absent_coefficient_row_is_zero(self, rng):
        data = random_dataset(rng, p=3)
        S = SubmodelId.from_indices([0, 2], 3)  # variable 1 excluded
        theta = random_theta(rng, data, S)
        ev = eval_focus(FocusSpec("beta_coeffs"), theta, data, S)
        assert ev.value[1] == 0.0
        assert np.all(ev.jacobian[1] == 0.0)
        # present rows are unit selectors
        assert ev.jacobian[0].tolist() == [0, 0, 1, 0]
        assert ev.jacobian[2].tolist() == [0, 0, 0, 1]

    def test_spillover_rho_derivative_zero_at_origin(self, rng):
        # d log|I - rho W| / d rho = -tr(W) = 0 at rho = 0
        data = random_dataset(rng)
        S = SubmodelId.wide(data.p)
        theta = Theta(0.0, 1.0, np.zeros(data.p))
        ev = eval_focus(FocusSpec("spillover"), theta, data, S)
        assert ev.jacobian[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert ev.value[0] == 0.0

    def test_spillover_sigma2_row(self, rng):
        data = random_dataset(rng)
        S = SubmodelId.wide(data.p)
        theta = random_theta(rng, data, S)
        ev = eval_focus(FocusSpec("spillover"), theta, data, S)
        assert ev.value[1] == theta.sigma2
        row = np.zeros(data.p + 2)
        row[1] = 1.0
        assert ev.jacobian[1].tolist() == row.tolist()


class TestMaxEigen:
    def test_value_is_top_inverse_eigenvalue(self, rng):
        data = random_dataset(rng, n=40)
        fit = fit_mle(data, SubmodelId.wide(data.p))
        ev = eval_focus(FocusSpec("max_eigen"), fit.theta_hat, data, fit.submodel)
        direct = np.max(np.linalg.eigvalsh(np.linalg.inv(fit.info.matrix)))
        assert ev.value[0] == pytest.approx(direct, abs=1e-12)

    def test_two_scheme_cross_check_on_spd_map(self, rng):
        # central differences (the oracle scheme of the Jacobian tests) against
        # a forward-difference oracle, on a smooth map through a random SPD matrix
        m = 4
        B = rng.standard_normal((m, m))
        A = B @ B.T + m * np.eye(m)

        def lam(theta):
            v = theta.to_vector()
            M = A + np.outer(v, v)
            return np.array([np.max(np.linalg.eigvalsh(np.linalg.inv(M)))])

        theta = Theta(0.3, 1.2, np.array([0.7, -0.4]))
        central = jacobian_fd(lam, theta)
        v = theta.to_vector()
        h = 1e-7 * np.maximum(1.0, np.abs(v))
        for j in range(m):
            e = np.zeros(m)
            e[j] = h[j]
            fwd = (lam(Theta.from_vector(v + e))[0] - lam(theta)[0]) / h[j]
            assert central[0, j] == pytest.approx(fwd, rel=1e-4, abs=1e-10)

    def test_jacobian_matches_closed_form_oracle(self, rng):
        # central differences over an information built with numpy alone
        for _ in range(6):
            data = random_dataset(rng, n=75, p=3)
            S = SubmodelId(int(rng.integers(0, 8)), 3)
            theta = fit_mle(data, S, with_info=False).theta_hat
            Xs = data.X[:, list(S.indices())]
            WY = data.W.matrix @ data.Y
            w = np.linalg.eigvals(data.W.matrix.toarray()).real

            def lam_max(v):
                info = closed_form_information(v[0], v[1], v[2:], Xs, data.Y, WY, w)
                return np.max(np.linalg.eigvalsh(np.linalg.inv(info)))

            v = theta.to_vector()
            want = np.empty(len(v))
            for j in range(len(v)):
                e = np.zeros(len(v))
                e[j] = 1e-5 * max(1.0, abs(v[j]))
                want[j] = (lam_max(v + e) - lam_max(v - e)) / (2.0 * e[j])
            got = eval_focus(FocusSpec("max_eigen"), theta, data, S).jacobian[0]
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    @pytest.mark.parametrize("mask", [0, 5, 15], ids=["narrow", "mixed", "wide"])
    @pytest.mark.parametrize("at_fit", [True, False], ids=["at-fit", "away"])
    def test_jacobian_matches_fd_over_the_focus_value(self, rng, mask, at_fit):
        # central differences over eval_focus(...).value, the closed-form information
        spec = FocusSpec("max_eigen")
        for _ in range(4):
            data = random_dataset(rng, n=40, p=4)
            S = SubmodelId(mask, 4)
            theta = fit_mle(data, S, with_info=False).theta_hat
            if not at_fit:
                theta = Theta(0.8 * theta.rho, 1.3 * theta.sigma2, theta.beta + 0.2)
            lo, hi = data.W.rho_interval
            m = len(S) + 2
            fd = jacobian_fd(
                embedded(spec, data, S),
                theta,
                lower=[lo] + [-np.inf] * (m - 1),
                upper=[hi] + [np.inf] * (m - 1),
            )
            got = eval_focus(spec, theta, data, S).jacobian
            assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_repeated_top_eigenvalue_warns(self, rng, monkeypatch):
        """eval_focus_batch's gap mask, which the sweep turns into GAP_WARNING."""
        data = random_dataset(rng, n=20, p=2)
        S = SubmodelId.wide(2)
        fits = fit_mle([data], [S], with_info=False)
        args = (FocusSpec("max_eigen"), [data], [S], fits.rho, fits.sigma2, fits.beta)
        assert focus.eval_focus_batch(*args)[2].tolist() == [[False]]
        monkeypatch.setattr(focus, "_EIGEN_GAP_TOL", np.inf)  # every gap counts as repeated
        assert focus.eval_focus_batch(*args)[2].tolist() == [[True]]

    def test_a_sweep_holds_no_information_of_every_fit(self):
        """A max_eigen table builds the information of one size-group chunk at
        a time, so its traced peak (tracemalloc sees numpy's buffers) exceeds
        a conditional-mean table's on the same data by less than half of the
        (2^p, p + 2, p + 2) information of every fit."""
        data = random_dataset(np.random.default_rng(13), n=75, p=13)

        def peak(spec):
            tracemalloc.start()
            try:
                fic_table(spec, data)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        every_fit = 2 ** data.p * (data.p + 2) ** 2 * 8
        extra = peak(FocusSpec("max_eigen")) - peak(FocusSpec("conditional_mean", location=0))
        assert extra < every_fit / 2


class TestFdOracle:
    def test_linear_function_exact(self):
        theta = Theta(0.2, 1.3, np.array([0.5, -1.0]))
        a = np.array([2.0, -1.0, 0.5, 3.0])

        def f(th):
            return np.array([a @ th.to_vector()])

        jac = jacobian_fd(f, theta)
        assert np.allclose(jac[0], a, atol=1e-9)

    def test_quadratic_function(self):
        theta = Theta(0.3, 1.0, np.array([2.0]))

        def f(th):
            v = th.to_vector()
            return np.array([v @ v])

        jac = jacobian_fd(f, theta)
        assert np.allclose(jac[0], 2 * theta.to_vector(), atol=1e-8)

    def test_bounds_respected(self):
        # f only defined for rho < 0.31; bounded stencil must stay inside
        theta = Theta(0.3, 1.0, np.array([1.0]))

        def f(th):
            assert th.rho < 0.31
            return np.array([th.rho**2])

        jac = jacobian_fd(f, theta, upper=[0.31, np.inf, np.inf])
        assert jac[0, 0] == pytest.approx(0.6, abs=1e-6)


class TestWideCentering:
    def test_beta_columns_of_wide_jacobian(self, rng):
        data = random_dataset(rng, p=3)
        fit = fit_mle(data, SubmodelId.wide(3))
        spec = FocusSpec("conditional_mean", location=2)
        J = wide_beta_jacobian(spec, fit.theta_hat, data)
        assert J.shape == (1, 3)
        assert np.allclose(J[0], data.X[2], atol=1e-12)

    def test_beta_coeffs_gives_identity(self, rng):
        data = random_dataset(rng, p=4)
        fit = fit_mle(data, SubmodelId.wide(4))
        J = wide_beta_jacobian(FocusSpec("beta_coeffs"), fit.theta_hat, data)
        assert np.array_equal(J, np.eye(4))


def _value_oracle(spec, data, S, w):
    """The focus value at theta_S from numpy and scipy alone: the max_eigen
    focus through closed_form_information, the spillover log-det by LU."""
    sel = list(S.indices())

    def f(theta):
        beta = np.zeros(data.p)
        beta[sel] = theta.beta
        if spec.kind == "conditional_mean":
            i = spec.location
            return np.array([theta.rho * data.WY[i] + data.X[i] @ beta])
        if spec.kind == "beta_coeffs":
            return beta[list(spec.coeff_subset)]
        if spec.kind == "spillover":
            log_det = data.W.log_det_factor(theta.rho, backend="lu")
            return np.concatenate(([log_det, theta.sigma2], beta))
        info = closed_form_information(theta.rho, theta.sigma2, theta.beta, data.X[:, sel],
                                       data.Y, data.WY, w)
        return np.array([np.max(np.linalg.eigvalsh(np.linalg.inv(info)))])

    return f


class TestBatch:
    """eval_focus_batch over a batch of 3 datasets on one W, at every subset's
    fit, against oracles that share no code with it."""

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(2024)
        first = random_dataset(rng, n=30, p=3)
        A = np.eye(30) - 0.3 * first.W.matrix.toarray()
        batch = [first]
        for _ in range(2):
            X = rng.standard_normal((30, 3))
            batch.append(Dataset(Y=np.linalg.solve(A, X @ rng.normal(size=3)
                                                   + rng.standard_normal(30)), X=X, W=first.W))
        subsets = enumerate_submodels(3)
        return batch, subsets, fit_mle(batch, subsets, with_info=False)

    @pytest.mark.parametrize("spec", [FocusSpec("conditional_mean", location=4),
                                      FocusSpec("beta_coeffs", coeff_subset=(2, 0)),
                                      FocusSpec("spillover"), FocusSpec("max_eigen")],
                             ids=lambda spec: spec.kind)
    def test_matches_the_oracles_at_every_fit(self, fitted, spec):
        batch, subsets, fits = fitted
        value, jac, gap, errors = eval_focus_batch(spec, batch, subsets, fits.rho, fits.sigma2,
                                                   fits.beta)
        assert errors == [None] * 3 and not gap.any()
        w = np.linalg.eigvals(batch[0].W.matrix.toarray()).real
        lo, hi = batch[0].W.rho_interval
        for r, data in enumerate(batch):
            for i, S in enumerate(subsets):
                theta = fits.result(r, i).theta_hat
                cols = [0, 1] + [2 + j for j in S.indices()]
                oracle = _value_oracle(spec, data, S, w)
                np.testing.assert_allclose(value[r, i], oracle(theta), rtol=1e-12, atol=1e-12)
                m = len(cols)
                fd = jacobian_fd(oracle, theta, lower=[lo] + [-np.inf] * (m - 1),
                                 upper=[hi] + [np.inf] * (m - 1))
                scale = max(1.0, np.max(np.abs(fd)))
                assert np.max(np.abs(jac[r, i][:, cols] - fd)) <= 1e-6 * scale

    @pytest.mark.parametrize("spec", [FocusSpec("conditional_mean", location=4),
                                      FocusSpec("spillover"), FocusSpec("max_eigen")],
                             ids=lambda spec: spec.kind)
    def test_fic_terms_read_only_each_subsets_columns(self, fitted, spec):
        """fic_terms reads each subset's J_S from its (rho, sigma^2, beta_S)
        columns alone: NaN in every other column of the Jacobians
        eval_focus_batch returns leaves bias^2 and variance the same, bit for bit."""
        batch, subsets, fits = fitted
        jac = eval_focus_batch(spec, batch, subsets, fits.rho, fits.sigma2, fits.beta)[1]
        wide = fit_mle(batch, [subsets[-1]])
        D = np.sqrt(batch[0].n) * wide.beta[:, 0]
        terms = fic_terms(subsets, jac, jac[:, -1, :, 2:], wide.info, D)
        poisoned = np.array(jac)
        for i, S in enumerate(subsets):
            poisoned[:, i, :, [2 + j for j in range(S.p) if j not in S.indices()]] = np.nan
        assert np.isnan(poisoned).any()
        again = fic_terms(subsets, poisoned, jac[:, -1, :, 2:], wide.info, D)
        assert np.asarray(again).tobytes() == np.asarray(terms).tobytes()
