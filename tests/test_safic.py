import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slmfic.fic as fic
import slmfic.safic as safic
import slmfic.slm as slm
from slmfic import (
    Dataset,
    FisherInfo,
    FocusSpec,
    PsiWeights,
    SpatialWeights,
    SubmodelId,
    delta_hat,
    enumerate_submodels,
    fic_table,
    fic_terms,
    fit_mle,
    g_matrix,
    k_empirical,
    m_matrix,
    median_bandwidth,
    omega_i,
    pointwise_risk,
    psi_kernel,
    psi_uniform,
    rho_beta_blocks,
    safic_score,
    safic_table,
    safic_terms,
)
from slmfic.errors import BandwidthError, ConfigError, SingularInformationError
from slmfic.safic import RhoBetaBlocks
from slmfic.slm import _certify

from conftest import random_dataset, random_info


def _row(S, delta, blocks, K, scheme="uniform"):
    """The safic_score row of S from safic_terms on S alone."""
    (bias2,), (penalty,) = safic_terms([S], delta, blocks, K)
    return safic_score(S, bias2, penalty, scheme=scheme)


class TestPsi:
    def test_uniform(self):
        psi = psi_uniform(4)
        assert psi.psi.tolist() == [0.25] * 4
        assert psi.scheme == "uniform"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PsiWeights(np.array([0.5, 0.7, -0.2]))

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            PsiWeights(np.array([np.nan, 0.5, 0.5]))

    def test_kernel_bandwidth_checked(self):
        X = np.array([[0.0], [1.0]])
        for h in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="bandwidth must be finite and positive"):
                psi_kernel(X, z0=[0.0], h=h)
        with pytest.raises(ConfigError, match="kernel center has 2 entries"):
            psi_kernel(X, z0=[0.0, 0.0], h=1.0)
        with pytest.raises(ConfigError, match="kernel center must be finite"):
            psi_kernel(X, z0=[np.nan], h=1.0)

    def test_kernel_table_without_covariates_needs_a_bandwidth(self, rng):
        """At p = 0 every pairwise distance is 0, so the median-distance default
        is an input error before any distance is computed."""
        data = random_dataset(rng, n=6, p=0)
        with pytest.raises(ConfigError, match="median-distance bandwidth is 0 for p=0"):
            safic_table(data, "kernel")
        rows = safic_table(data, "kernel", bandwidth=1.0)
        assert [r.submodel.mask for r in rows] == [0]

    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            PsiWeights(np.array([0.5, 0.6]))

    def test_kernel_two_points(self):
        # weights proportional to exp(-d^2/2) for unit bandwidth
        psi = psi_kernel(np.array([[0.0], [1.0]]), z0=[0.0], h=1.0)
        e = np.exp(-0.5)
        assert psi.psi[0] == pytest.approx(1 / (1 + e), abs=1e-12)
        assert psi.psi[1] == pytest.approx(e / (1 + e), abs=1e-12)
        assert psi.scheme == "kernel"

    def test_kernel_peaks_at_center(self, rng):
        X = rng.standard_normal((20, 2))
        psi = psi_kernel(X, z0=X[7], h=0.5)
        assert np.argmax(psi.psi) == 7

    def test_kernel_flat_limit(self, rng):
        X = rng.standard_normal((10, 2))
        psi = psi_kernel(X, z0=np.zeros(2), h=1e6)
        assert np.allclose(psi.psi, 0.1, atol=1e-9)

    def test_kernel_underflow(self):
        X = np.array([[0.0], [100.0]])
        with pytest.raises(BandwidthError):
            psi_kernel(X, z0=[-1e6], h=1e-3)

    @pytest.mark.parametrize("h", [1e-200, 1e-300])
    def test_kernel_squared_bandwidth_underflow(self, h):
        # h*h underflows to 0, so the centre row reads 0/0: NaN, not a weight
        X = np.array([[0.0], [1.0]])
        with pytest.raises(BandwidthError, match="too small"):
            psi_kernel(X, z0=[0.0], h=h)

    def test_median_bandwidth(self):
        X = np.array([[0.0], [1.0], [3.0]])
        # pairwise distances 1, 3, 2 -> median 2
        assert median_bandwidth(X) == 2.0

    def test_median_bandwidth_degenerate(self):
        with pytest.raises(BandwidthError):
            median_bandwidth(np.ones((5, 2)))

    def test_median_bandwidth_matches_all_pairs(self, rng):
        X = rng.standard_normal((200, 4))
        iu = np.triu_indices(200, k=1)
        pairs = np.sqrt(np.sum((X[iu[0]] - X[iu[1]]) ** 2, axis=1))
        assert median_bandwidth(X) == pytest.approx(float(np.median(pairs)), rel=1e-14)


class TestBlocks:
    def test_scalar_schur(self):
        I = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 1.0]])
        blocks = rho_beta_blocks(FisherInfo(I, n_obs=10))
        assert blocks.I_rr == 2.0
        assert blocks.I_br[0, 0] == 1.0
        # schur = 1 - 1/2 = 0.5, so Q = 2
        assert blocks.Q[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_q_symmetric_psd(self, rng):
        blocks = rho_beta_blocks(random_info(rng, 4))
        assert np.array_equal(blocks.Q, blocks.Q.T)
        assert np.linalg.eigvalsh(blocks.Q)[0] > 0

    def test_sigma2_row_ignored(self, rng):
        info = random_info(rng, 3)
        M = info.matrix.copy()
        M[1, 1] = 999.0
        assert np.allclose(
            rho_beta_blocks(FisherInfo(M, 10)).Q,
            rho_beta_blocks(info).Q,
            atol=1e-12,
        )


class TestG:
    def test_narrow_zero(self, rng):
        blocks = rho_beta_blocks(random_info(rng, 3))
        assert np.array_equal(g_matrix(blocks, SubmodelId.narrow(3)), np.zeros((3, 3)))

    def test_wide_identity(self, rng):
        blocks = rho_beta_blocks(random_info(rng, 3))
        G = g_matrix(blocks, SubmodelId.wide(3))
        assert np.allclose(G, np.eye(3), atol=1e-10)

    def test_idempotent(self, rng):
        blocks = rho_beta_blocks(random_info(rng, 4))
        for S in enumerate_submodels(4):
            G = g_matrix(blocks, S)
            assert np.max(np.abs(G @ G - G)) < 1e-8

    def test_projects_onto_selected_rows(self, rng):
        # G fixes vectors already in the projected space (nonzero only on the
        # selected coordinates) and has zero rows for the unselected ones
        blocks = rho_beta_blocks(random_info(rng, 4))
        S = SubmodelId.from_indices([1, 2], 4)
        G = g_matrix(blocks, S)
        v = np.zeros(4)
        v[[1, 2]] = [0.3, -1.2]
        assert np.allclose(G @ v, v, atol=1e-10)
        assert np.all(G[[0, 3]] == 0)


class TestMoments:
    def test_h_two_units_by_hand(self):
        W = SpatialWeights.from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        Y = np.array([3.0, -1.0])
        data = Dataset(Y=Y, X=X, W=W)
        psi = PsiWeights(np.array([0.25, 0.75]))
        # I_br / I_rr = (1, 0.5) and WY = (-1, 3), so omega_i = (WY)_i (1, 0.5) - x_i
        I = np.array([[2.0, 0.0, 2.0, 1.0], [0.0, 1.0, 0.0, 0.0],
                      [2.0, 0.0, 5.0, 0.0], [1.0, 0.0, 0.0, 5.0]])
        blocks = rho_beta_blocks(FisherInfo(I, n_obs=2))
        w0 = np.array([-2.0, -0.5])
        w1 = np.array([3.0, -0.5])
        expected = 0.25 * np.outer(w0, w0) + 0.75 * np.outer(w1, w1)
        assert np.allclose(k_empirical(blocks, data, psi), expected, atol=1e-12)

    def test_h_summation_oracle(self, rng):
        # K from the predictor gradients g_i = ((WY)_i, x_i): omega_i = T g_i
        # with T = [I_br / I_rr, -I]
        data = random_dataset(rng, n=15, p=3)
        psi = psi_uniform(15)
        blocks = rho_beta_blocks(random_info(rng, 3))
        T = np.hstack([blocks.I_br / blocks.I_rr, -np.eye(3)])
        WY = data.W.matrix @ data.Y
        expected = np.zeros((3, 3))
        for i in range(15):
            g = T @ np.concatenate(([WY[i]], data.X[i]))
            expected += psi.psi[i] * np.outer(g, g)
        assert np.allclose(k_empirical(blocks, data, psi), expected, atol=1e-10)

    def test_h_zero_weights_matrix(self, rng):
        # with W = 0 the spatial lag vanishes, omega_i = -x_i and K = X' Psi X
        W = SpatialWeights.from_adjacency(np.zeros((10, 10)))
        X = rng.standard_normal((10, 2))
        data = Dataset(Y=rng.standard_normal(10), X=X, W=W)
        blocks = rho_beta_blocks(random_info(rng, 2))
        K = k_empirical(blocks, data, psi_uniform(10))
        assert np.allclose(K, X.T @ X / 10, atol=1e-12)

    def test_k_equals_weighted_outer_sum(self, rng):
        data = random_dataset(rng, n=20, p=3)
        psi = psi_kernel(data.X, z0=np.zeros(3), h=median_bandwidth(data.X))
        blocks = rho_beta_blocks(random_info(rng, 3))
        K = k_empirical(blocks, data, psi)
        expected = np.zeros((3, 3))
        for i in range(20):
            w = omega_i(i, data, blocks)
            expected += psi.psi[i] * np.outer(w, w)
        assert np.max(np.abs(K - expected)) < 1e-10

    def test_k_psd(self, rng):
        data = random_dataset(rng, n=25, p=4)
        blocks = rho_beta_blocks(random_info(rng, 4))
        K = k_empirical(blocks, data, psi_uniform(25))
        assert np.linalg.eigvalsh(K)[0] > -1e-10

    def test_omega_zero_weights(self, rng):
        W = SpatialWeights.from_adjacency(np.zeros((5, 5)))
        X = rng.standard_normal((5, 2))
        data = Dataset(Y=rng.standard_normal(5), X=X, W=W)
        blocks = rho_beta_blocks(random_info(rng, 2))
        assert np.allclose(omega_i(3, data, blocks), -X[3], atol=1e-12)

    def test_omega_index_checked(self, rng):
        data = random_dataset(rng, n=5, p=2)
        blocks = rho_beta_blocks(random_info(rng, 2))
        with pytest.raises(ValueError):
            omega_i(5, data, blocks)


class TestRisk:
    def test_narrow_risk(self, rng):
        data = random_dataset(rng, n=10, p=2)
        blocks = rho_beta_blocks(random_info(rng, 2))
        delta = rng.standard_normal(2)
        w = omega_i(2, data, blocks)
        wy = float(data.W.matrix.toarray()[2] @ data.Y)
        expected = float(w @ delta) ** 2 + wy * wy / blocks.I_rr
        assert pointwise_risk(2, SubmodelId.narrow(2), delta, blocks, data) == pytest.approx(
            expected, abs=1e-10
        )

    def test_wide_risk(self, rng):
        data = random_dataset(rng, n=10, p=2)
        blocks = rho_beta_blocks(random_info(rng, 2))
        delta = rng.standard_normal(2)
        w = omega_i(4, data, blocks)
        wy = float(data.W.matrix.toarray()[4] @ data.Y)
        expected = wy * wy / blocks.I_rr + float(w @ blocks.Q @ w)
        assert pointwise_risk(4, SubmodelId.wide(2), delta, blocks, data) == pytest.approx(
            expected, abs=1e-8
        )

    def test_average_decomposition(self, rng):
        # psi-average of pointwise risks = score + shared rho term, exactly
        data = random_dataset(rng, n=15, p=3)
        psi = psi_uniform(15)
        blocks = rho_beta_blocks(random_info(rng, 3))
        delta = rng.standard_normal(3)
        K = k_empirical(blocks, data, psi)
        WY = data.W.matrix @ data.Y
        shared = float(psi.psi @ (WY * WY)) / blocks.I_rr
        for S in enumerate_submodels(3):
            avg = sum(
                psi.psi[i] * pointwise_risk(i, S, delta, blocks, data) for i in range(15)
            )
            row = _row(S, delta, blocks, K)
            assert abs(avg - (row.score + shared)) < 1e-10


class TestScore:
    def test_wide_is_penalty_only(self, rng):
        blocks = rho_beta_blocks(random_info(rng, 3))
        data = random_dataset(rng, n=12, p=3)
        K = k_empirical(blocks, data, psi_uniform(12))
        row = _row(SubmodelId.wide(3), rng.standard_normal(3), blocks, K)
        assert row.bias2 == pytest.approx(0.0, abs=1e-10)
        assert row.variance == pytest.approx(float(np.trace(blocks.Q @ K)), rel=1e-8)

    def test_narrow_is_bias_only(self, rng):
        blocks = rho_beta_blocks(random_info(rng, 3))
        data = random_dataset(rng, n=12, p=3)
        K = k_empirical(blocks, data, psi_uniform(12))
        delta = rng.standard_normal(3)
        row = _row(SubmodelId.narrow(3), delta, blocks, K)
        assert row.variance == 0.0
        assert row.bias2 == pytest.approx(float(delta @ K @ delta), rel=1e-8)

    def test_matches_projection_oracle(self, rng):
        # every subset at p = 4 against the traces through G = g_matrix
        data = random_dataset(rng, n=20, p=4)
        blocks = rho_beta_blocks(random_info(rng, 4))
        K = k_empirical(blocks, data, psi_kernel(data.X, data.X[3], h=1.0))
        delta = rng.standard_normal(4)
        for S in enumerate_submodels(4):
            G = g_matrix(blocks, S)
            IG = np.eye(4) - G
            bias2 = float(np.trace(IG @ np.outer(delta, delta) @ IG.T @ K))
            penalty = float(np.trace(G @ blocks.Q @ G.T @ K))
            row = _row(S, delta, blocks, K, scheme="kernel")
            assert row.bias2 == pytest.approx(bias2, rel=1e-10)
            assert row.variance == pytest.approx(penalty, rel=1e-10)
            assert row.scheme == "kernel"

    def test_scores_nonnegative(self, rng):
        data = random_dataset(rng, n=20, p=4)
        blocks = rho_beta_blocks(random_info(rng, 4))
        K = k_empirical(blocks, data, psi_uniform(20))
        delta = rng.standard_normal(4)
        for S in enumerate_submodels(4):
            row = _row(S, delta, blocks, K)
            assert row.bias2 >= -1e-10
            assert row.variance >= -1e-10


class TestConditioning:
    """One check, _certify, per wide matrix: it raises SingularInformationError
    naming the matrix unless the matrix is finite and positive definite with a
    condition number of at most 1e12.  Interlacing certifies every block."""

    def test_threshold(self):
        _certify(np.diag([1.0, 1.01e-12]), "M")
        with pytest.raises(SingularInformationError, match=r"^M has condition number 1\.010e\+12$"):
            _certify(np.diag([1.0, 0.99e-12]), "M")
        with pytest.raises(SingularInformationError, match="^M is not positive definite"):
            _certify(np.zeros((2, 2)), "M")
        _certify(np.empty((0, 0)), "M")  # p = 0: nothing to invert

    def test_indefinite(self):
        with pytest.raises(SingularInformationError,
                           match=r"^M is not positive definite: smallest eigenvalue -1\.000e\+00$"):
            _certify(np.diag([1.0, -1.0]), "M")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, bad):
        with pytest.raises(SingularInformationError, match="^M has a non-finite entry$"):
            _certify(np.array([[bad, 0.0], [0.0, 1.0]]), "M")

    def test_indefinite_wide_information_stops_the_sweeps(self):
        info = FisherInfo(np.diag([1.0, 1.0, -1.0, 1.0, 1.0]), 50)
        with pytest.raises(SingularInformationError, match="^wide information is not positive"):
            fic_terms(enumerate_submodels(3), np.ones((1, 5)), np.ones((1, 3)), info, np.ones(3))
        with pytest.raises(SingularInformationError, match="^beta Schur complement"):
            rho_beta_blocks(info)
        I_bb = np.diag([-1.0, 1.0, 1.0])
        blocks = RhoBetaBlocks(1.0, np.zeros((3, 1)), I_bb, I_bb)
        with pytest.raises(SingularInformationError, match="^beta Schur complement"):
            safic_terms(enumerate_submodels(3), np.ones(3), blocks, np.eye(3))

    def test_each_site_names_its_matrix(self):
        I = np.eye(5)
        I[2:4, 2:4] = 1.0  # beta_1 and beta_2 information rows coincide
        info = FisherInfo(I, 50)
        S = SubmodelId.from_indices([0, 1], 3)
        with pytest.raises(SingularInformationError, match="^submodel information for S4 "):
            m_matrix(info, S)
        with pytest.raises(SingularInformationError, match="^beta Schur complement"):
            rho_beta_blocks(info)
        with pytest.raises(SingularInformationError, match="^wide information "):
            fic_terms([S], [np.ones((1, 4))], np.ones((1, 3)), info, np.ones(3))
        I_bb = I[2:, 2:]
        blocks = RhoBetaBlocks(1.0, np.zeros((3, 1)), I_bb, I_bb)
        with pytest.raises(SingularInformationError, match="^projected inverse-Q block for S4 "):
            g_matrix(blocks, S)
        with pytest.raises(SingularInformationError, match="^beta Schur complement"):
            safic_terms([S], np.ones(3), blocks, np.eye(3))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.0, max_value=6.0), st.booleans())
    def test_interlacing(self, seed, p, log_cond, aligned):
        """Every (rho, sigma^2, beta_S) block of an SPD I with cond(I) <= 1e6, and
        every block Q^-1[S, S] of its beta Schur complement, passes _certify with
        a condition number at most cond(I) (1 + 1e-9).  aligned puts the extreme
        eigenvalues on coordinate axes, where some blocks attain the bound."""
        rng = np.random.default_rng(seed)
        lam = np.sort(10.0 ** rng.uniform(0.0, log_cond, p + 2))
        lam[[0, -1]] = 1.0, 10.0 ** log_cond
        V = np.eye(p + 2) if aligned else np.linalg.qr(rng.standard_normal((p + 2, p + 2)))[0]
        I = (V * lam) @ V.T
        I = 0.5 * (I + I.T)

        def cond(M):
            e = np.linalg.eigvalsh(M)
            return e[-1] / e[0]

        bound = cond(I) * (1.0 + 1e-9)
        blocks = rho_beta_blocks(FisherInfo(I, 50))
        for S in enumerate_submodels(p):
            idx = [0, 1] + [2 + j for j in S.indices()]
            sel = list(S.indices())
            for what, M in (("I_S", I[np.ix_(idx, idx)]), ("M_S", blocks.Q_inv[np.ix_(sel, sel)])):
                _certify(M, what)
                assert not M.size or cond(M) <= bound, (what, S.label())

    def test_one_certificate_per_wide_matrix(self, monkeypatch):
        """A theta-free FIC sweep and an sAFIC sweep certify the same number of
        matrices at p = 3 (8 subsets) as at p = 10 (1,024 subsets): FIC the wide
        fit's information and fic_terms' input, sAFIC the wide fit's
        information, rho_beta_blocks' Schur complement and safic_terms' input."""
        calls = []

        def counting(M, what, certify=slm._certify):
            calls.append(what)
            certify(M, what)

        for module in (slm, fic, safic):
            monkeypatch.setattr(module, "_certify", counting)
        counts = {}
        for p in (3, 10):
            data = random_dataset(np.random.default_rng(p), n=40, p=p)
            calls.clear()
            fic_table(FocusSpec("conditional_mean", location=0), data)
            n_fic = len(calls)
            calls.clear()
            safic_table(data, "uniform")
            counts[p] = (n_fic, len(calls))
        assert counts[3] == counts[10] == (2, 3)


class TestStackedTerms:
    """safic_terms, one stacked solve per subset size, against the traces
    through G = g_matrix, within 1e-12 relative (bias2 near zero, as at the
    wide model, on the scale of the narrow model's delta'K delta)."""

    @pytest.mark.parametrize("scheme", ["uniform", "kernel"])
    @pytest.mark.parametrize("p", range(7))
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_projection_oracle(self, seed, p, scheme):
        data = random_dataset(np.random.default_rng([seed, p]), n=30, p=p)
        fit_w = fit_mle(data, SubmodelId.wide(p))
        blocks, delta = rho_beta_blocks(fit_w.info), delta_hat(fit_w)
        if scheme == "uniform":
            psi = psi_uniform(data.n)
        else:
            psi = psi_kernel(data.X, data.X[seed], median_bandwidth(data.X) if p else 1.0)
        K = k_empirical(blocks, data, psi)
        subsets = enumerate_submodels(p)
        bias2, penalty = safic_terms(subsets, delta, blocks, K)
        G = [g_matrix(blocks, S) for S in subsets]
        r = [delta - g @ delta for g in G]
        penalty_oracle = [np.trace(g @ blocks.Q @ g.T @ K) for g in G]
        np.testing.assert_allclose(bias2, [v @ K @ v for v in r], rtol=1e-12,
                                   atol=1e-12 * (delta @ K @ delta))
        np.testing.assert_allclose(penalty, penalty_oracle, rtol=1e-12,
                                   atol=1e-12 * max(penalty_oracle))
