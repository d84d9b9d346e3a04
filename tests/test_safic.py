import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

import slmfic.safic as safic
import slmfic.simulate as simulate
import slmfic.slm as slm
import slmfic.weights as weights
from slmfic import (
    Dataset,
    FisherInfo,
    FocusSpec,
    PsiWeights,
    SimConfig,
    SpatialWeights,
    SubmodelId,
    enumerate_submodels,
    fic_table,
    fit_mle,
    median_bandwidth,
    monte_carlo,
    psi_kernel,
    psi_uniform,
    safic_score,
    safic_table,
)
from slmfic.errors import BandwidthError, ConfigError, DataFormatError, SingularInformationError
from slmfic.fic import delta_hat, m_matrix
from slmfic.safic import RhoBetaBlocks, g_matrix, pointwise_risk, rho_beta_blocks
from slmfic.slm import _certify

from conftest import (
    k_factor_one,
    k_one,
    random_dataset,
    random_info,
    safic_kernel_one,
    sweep_one,
)


def _q(blocks):
    """Q, the symmetrized inverse of the beta Schur complement blocks.Q_inv."""
    Q = np.linalg.inv(blocks.Q_inv)
    return 0.5 * (Q + Q.T)


def _omega(i, data, blocks):
    """The sensitivity vector omega_i = I_br I_rr^{-1} (WY)_i - x_i, WY from the dense W."""
    wy_i = float(data.W.matrix.toarray()[i] @ data.Y)
    return blocks.I_br[:, 0] / blocks.I_rr * wy_i - data.X[i]


def _row(S, delta, blocks, F, scheme="uniform"):
    """The safic_score row of S from the risk kernel on S alone, F a factor of K."""
    (bias2,), (penalty,) = safic_kernel_one([S], delta, blocks.Q_inv, F)
    return safic_score(S, bias2, penalty, scheme=scheme)


class TestPsi:
    def test_uniform(self):
        psi = psi_uniform(4)
        assert psi.psi.tolist() == [0.25] * 4

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
        assert median_bandwidth(X) == float(np.median(pairs))


class TestMedianBandwidth:
    """median_bandwidth streams the distances; it must return np.median(pdist(X))
    to the bit, with any block and bin budget, in bounded memory."""

    @staticmethod
    def _with_budget(X, block, bin_bits):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "_CHUNK", block)
            mp.setattr(safic, "_BIN_BITS", bin_bits)
            return median_bandwidth(X)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=300),
           st.integers(min_value=1, max_value=8),
           st.sampled_from(["normal", "integer", "duplicates", "outlier"]),
           st.floats(min_value=-3.0, max_value=3.0),
           st.sampled_from([(1, 2), (64, 3), (1000, 5), (1 << 16, 14)]))
    def test_equals_numpy_median(self, seed, n, p, kind, log_scale, budget):
        """Odd and even pair counts, duplicate rows, integer tie-heavy X, one far
        row that puts the median below the first bins, scales 1e-3 to 1e3; the
        small budgets run many blocks, count passes and one-value brackets."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        if kind == "integer":
            X = rng.integers(-2, 3, (n, p)).astype(float)
        elif kind == "duplicates":
            X[rng.integers(0, n, n // 2)] = X[0]
        elif kind == "outlier":
            X[0] *= 1e6
        X *= 10.0 ** log_scale
        expected = float(np.median(pdist(X)))
        if expected > 0:
            assert self._with_budget(X, *budget) == expected
        else:
            with pytest.raises(BandwidthError, match="zero"):
                self._with_budget(X, *budget)

    @pytest.mark.parametrize("X, h", [
        ([[0.0], [1.0], [3.0], [7.0]], 3.5),  # the upper middle distance lies above the bracket
        ([[0.0], [1.0], [2.0], [3.0]], 1.5),  # a bracket of one value, three times 1.0
        ([[0.0], [1e-3], [3e-3], [6e-3], [1e-2], [1e3]], 7e-3),  # far below the first bins
    ], ids=["above", "tied", "far-below"])
    @pytest.mark.parametrize("bin_bits", [2, 14])
    def test_one_distance_at_a_time(self, X, h, bin_bits):
        X = np.array(X)
        assert self._with_budget(X, 1, bin_bits) == float(np.median(pdist(X)))
        assert float(np.median(pdist(X))) == pytest.approx(h)

    @pytest.mark.parametrize("X", [
        [[33.54, -18.9, -10.53, 97.4, 76.82, 37.88, -61.7, 77.76],
         [18.12, -74.78, -57.69, 122.86, 184.54, -52.97, -207.81, 58.75]],
        [[0.0], [3e-162]],
    ], ids=["rounding", "underflow"])
    def test_bound_covers_every_distance(self, X):
        """The distance exceeds twice the largest computed distance to the mean:
        by one ulp from rounding, or from 0 where the distances to the mean
        square to 0 and the distance itself squares to a subnormal."""
        X = np.array(X)
        assert median_bandwidth(X) == float(np.median(pdist(X)))

    def test_two_passes_over_the_distances(self, monkeypatch):
        """At n = 2,000 (2 M distances) one count pass over the top 8 binades
        leaves under weights._CHUNK distances in the median's bin: one more pass selects."""
        passes = []
        blocks = safic._pair_blocks
        monkeypatch.setattr(safic, "_pair_blocks", lambda X: passes.append(1) or blocks(X))
        X = np.random.default_rng(5).standard_normal((2000, 3))
        assert median_bandwidth(X) == float(np.median(pdist(X)))
        assert len(passes) == 2

    @pytest.mark.parametrize("X, match", [
        (np.zeros((0, 2)), "at least 2 rows, got 0"),
        (np.zeros((1, 2)), "at least 2 rows, got 1"),
        (np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [np.nan, 0.0]]), "row 3 "),
        (np.array([[0.0, 1.0], [1.0, np.inf], [2.0, -np.inf]]), "row 1 "),
    ], ids=["empty", "one-row", "nan", "inf"])
    def test_input_errors(self, X, match):
        with pytest.raises(DataFormatError, match=match):
            median_bandwidth(X)

    def test_memory_is_bounded(self):
        """At n = 4,000 pdist alone holds 8 M distances (64 MB); the streamed
        median keeps its traced peak under 4 MB."""
        X = np.random.default_rng(4).standard_normal((4000, 5))
        tracemalloc.start()
        try:
            h = median_bandwidth(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert h == float(np.median(pdist(X)))


class TestBlocks:
    def test_scalar_schur(self):
        I = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 1.0]])
        blocks = rho_beta_blocks(FisherInfo(I, n_obs=10))
        assert blocks.I_rr == 2.0
        assert blocks.I_br[0, 0] == 1.0
        # schur = 1 - 1/2 = 0.5, so Q = 2
        assert blocks.Q_inv[0, 0] == 0.5
        assert _q(blocks)[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_q_symmetric_psd(self, rng):
        blocks = rho_beta_blocks(random_info(rng, 4))
        assert np.array_equal(blocks.Q_inv, blocks.Q_inv.T)
        assert np.linalg.eigvalsh(blocks.Q_inv)[0] > 0
        assert np.array_equal(_q(blocks), _q(blocks).T)

    def test_sigma2_row_ignored(self, rng):
        info = random_info(rng, 3)
        M = info.matrix.copy()
        M[1, 1] = 999.0
        assert np.allclose(
            rho_beta_blocks(FisherInfo(M, 10)).Q_inv,
            rho_beta_blocks(info).Q_inv,
            atol=1e-12,
        )


class TestG:
    def test_narrow_zero(self, rng):
        blocks = rho_beta_blocks(random_info(rng, 3))
        assert np.array_equal(g_matrix(blocks, SubmodelId(0, 3)), np.zeros((3, 3)))

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
        assert np.allclose(k_one(blocks, data, psi), expected, atol=1e-12)

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
        assert np.allclose(k_one(blocks, data, psi), expected, atol=1e-10)

    def test_h_zero_weights_matrix(self, rng):
        # with W = 0 the spatial lag vanishes, omega_i = -x_i and K = X' Psi X
        W = SpatialWeights.from_adjacency(np.zeros((10, 10)))
        X = rng.standard_normal((10, 2))
        data = Dataset(Y=rng.standard_normal(10), X=X, W=W)
        blocks = rho_beta_blocks(random_info(rng, 2))
        K = k_one(blocks, data, psi_uniform(10))
        assert np.allclose(K, X.T @ X / 10, atol=1e-12)

    def test_k_equals_weighted_outer_sum(self, rng):
        data = random_dataset(rng, n=20, p=3)
        psi = psi_kernel(data.X, z0=np.zeros(3), h=median_bandwidth(data.X))
        blocks = rho_beta_blocks(random_info(rng, 3))
        K = k_one(blocks, data, psi)
        expected = np.zeros((3, 3))
        for i in range(20):
            w = _omega(i, data, blocks)
            expected += psi.psi[i] * np.outer(w, w)
        assert np.max(np.abs(K - expected)) < 1e-10

    def test_k_psd(self, rng):
        data = random_dataset(rng, n=25, p=4)
        blocks = rho_beta_blocks(random_info(rng, 4))
        K = k_one(blocks, data, psi_uniform(25))
        assert np.linalg.eigvalsh(K)[0] > -1e-10

    def test_omega_zero_weights(self, rng):
        # with W = 0, omega_i = -x_i and the rho term vanishes: the narrow risk is (x_i' delta)^2
        W = SpatialWeights.from_adjacency(np.zeros((5, 5)))
        X = rng.standard_normal((5, 2))
        data = Dataset(Y=rng.standard_normal(5), X=X, W=W)
        blocks = rho_beta_blocks(random_info(rng, 2))
        delta = rng.standard_normal(2)
        risk = pointwise_risk(3, SubmodelId(0, 2), delta, blocks, data)
        assert risk == pytest.approx(float(X[3] @ delta) ** 2, abs=1e-12)

    def test_omega_index_checked(self, rng):
        data = random_dataset(rng, n=5, p=2)
        blocks = rho_beta_blocks(random_info(rng, 2))
        for i in (-1, 5):
            with pytest.raises(ValueError, match=f"unit index {i} out of range for n=5"):
                pointwise_risk(i, SubmodelId.wide(2), np.zeros(2), blocks, data)


class TestRisk:
    def test_narrow_risk(self, rng):
        data = random_dataset(rng, n=10, p=2)
        blocks = rho_beta_blocks(random_info(rng, 2))
        delta = rng.standard_normal(2)
        w = _omega(2, data, blocks)
        wy = float(data.W.matrix.toarray()[2] @ data.Y)
        expected = float(w @ delta) ** 2 + wy * wy / blocks.I_rr
        assert pointwise_risk(2, SubmodelId(0, 2), delta, blocks, data) == pytest.approx(
            expected, abs=1e-10
        )

    def test_wide_risk(self, rng):
        data = random_dataset(rng, n=10, p=2)
        blocks = rho_beta_blocks(random_info(rng, 2))
        delta = rng.standard_normal(2)
        w = _omega(4, data, blocks)
        wy = float(data.W.matrix.toarray()[4] @ data.Y)
        expected = wy * wy / blocks.I_rr + float(w @ _q(blocks) @ w)
        assert pointwise_risk(4, SubmodelId.wide(2), delta, blocks, data) == pytest.approx(
            expected, abs=1e-8
        )

    def test_average_decomposition(self, rng):
        # psi-average of pointwise risks = score + shared rho term, exactly
        data = random_dataset(rng, n=15, p=3)
        psi = psi_uniform(15)
        blocks = rho_beta_blocks(random_info(rng, 3))
        delta = rng.standard_normal(3)
        F = k_factor_one(blocks, data, psi)
        WY = data.W.matrix @ data.Y
        shared = float(psi.psi @ (WY * WY)) / blocks.I_rr
        for S in enumerate_submodels(3):
            avg = sum(
                psi.psi[i] * pointwise_risk(i, S, delta, blocks, data) for i in range(15)
            )
            row = _row(S, delta, blocks, F)
            assert abs(avg - (row.score + shared)) < 1e-10


class TestScore:
    def test_wide_is_penalty_only(self, rng):
        blocks = rho_beta_blocks(random_info(rng, 3))
        data = random_dataset(rng, n=12, p=3)
        F = k_factor_one(blocks, data, psi_uniform(12))
        row = _row(SubmodelId.wide(3), rng.standard_normal(3), blocks, F)
        assert row.bias2 == pytest.approx(0.0, abs=1e-10)
        assert row.variance == pytest.approx(float(np.trace(_q(blocks) @ F @ F.T)), rel=1e-8)

    def test_narrow_is_bias_only(self, rng):
        blocks = rho_beta_blocks(random_info(rng, 3))
        data = random_dataset(rng, n=12, p=3)
        F = k_factor_one(blocks, data, psi_uniform(12))
        delta = rng.standard_normal(3)
        row = _row(SubmodelId(0, 3), delta, blocks, F)
        assert row.variance == 0.0
        assert row.bias2 == pytest.approx(float(delta @ F @ F.T @ delta), rel=1e-8)

    def test_matches_projection_oracle(self, rng):
        # every subset at p = 4 against the traces through G = g_matrix
        data = random_dataset(rng, n=20, p=4)
        blocks = rho_beta_blocks(random_info(rng, 4))
        F = k_factor_one(blocks, data, psi_kernel(data.X, data.X[3], h=1.0))
        K = F @ F.T
        delta = rng.standard_normal(4)
        for S in enumerate_submodels(4):
            G = g_matrix(blocks, S)
            IG = np.eye(4) - G
            bias2 = float(np.trace(IG @ np.outer(delta, delta) @ IG.T @ K))
            penalty = float(np.trace(G @ _q(blocks) @ G.T @ K))
            row = _row(S, delta, blocks, F, scheme="kernel")
            assert row.bias2 == pytest.approx(bias2, rel=1e-10)
            assert row.variance == pytest.approx(penalty, rel=1e-10)
            assert row.scheme == "kernel"

    def test_any_factor_of_k_gives_the_same_terms(self, rng):
        """The kernel reads K only through F F': the QR factor, the Cholesky
        factor and a wider factor with orthogonally mixed columns agree."""
        data = random_dataset(rng, n=20, p=4)
        blocks = rho_beta_blocks(random_info(rng, 4))
        F = k_factor_one(blocks, data, psi_uniform(20))
        Qm, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        wide = np.hstack([F, np.zeros((4, 2))]) @ Qm
        delta, subsets = rng.standard_normal(4), enumerate_submodels(4)
        terms = np.array(safic_kernel_one(subsets, delta, blocks.Q_inv, F))
        for other in (np.linalg.cholesky(F @ F.T), wide):
            np.testing.assert_allclose(safic_kernel_one(subsets, delta, blocks.Q_inv, other),
                                       terms, rtol=1e-10, atol=1e-12 * terms.max())

    def test_scores_nonnegative(self, rng):
        data = random_dataset(rng, n=20, p=4)
        blocks = rho_beta_blocks(random_info(rng, 4))
        F = k_factor_one(blocks, data, psi_uniform(20))
        delta = rng.standard_normal(4)
        for S in enumerate_submodels(4):
            row = _row(S, delta, blocks, F)
            assert row.bias2 >= 0.0
            assert row.variance >= -1e-10


class TestConditioning:
    """One check, _certify, per wide matrix: it raises SingularInformationError
    naming the matrix unless the matrix is finite and positive definite with a
    Jacobi-scaled condition number of at most 1e12.  Interlacing certifies
    every block."""

    def test_threshold(self):
        """The correlation matrix [[1, r], [r, 1]], condition number (1 + r) / (1 - r),
        passes at 0.99e12 and fails at 1.01e12, with any positive diagonal D
        around it (D M D), while a diagonal matrix of any spread passes."""
        def correlation(D, cond):
            r = 1.0 - 2.0 / (1.0 + cond)
            return D[:, None] * np.array([[1.0, r], [r, 1.0]]) * D[None, :]

        for D in map(np.array, [(1.0, 1.0), (1e-6, 1e3), (1e4, 1e-8)]):
            _certify(correlation(D, 0.99e12), "M")
            with pytest.raises(SingularInformationError,
                               match=r"^M has condition number 1\.010e\+12$"):
                _certify(correlation(D, 1.01e12), "M")
            _certify(np.diag(D**2 * [1.0, 1e-20]), "M")
        with pytest.raises(SingularInformationError, match="^M is not positive definite"):
            _certify(np.zeros((2, 2)), "M")
        _certify(np.empty((0, 0)), "M")  # p = 0: nothing to invert

    def test_indefinite(self):
        """A diagonal entry that is not positive is left unscaled; the smallest
        eigenvalue named is the scaled matrix's, here -1 for D [[1, 2], [2, 1]] D."""
        with pytest.raises(SingularInformationError,
                           match=r"^M is not positive definite: smallest eigenvalue -1\.000e\+00$"):
            _certify(np.diag([1.0, -1.0]), "M")
        D = np.array([2.0, 0.5])
        with pytest.raises(SingularInformationError,
                           match=r"^M is not positive definite: smallest eigenvalue -1\.000e\+00$"):
            _certify(D[:, None] * np.array([[1.0, 2.0], [2.0, 1.0]]) * D[None, :], "M")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, bad):
        with pytest.raises(SingularInformationError, match="^M has a non-finite entry$"):
            _certify(np.array([[bad, 0.0], [0.0, 1.0]]), "M")

    def test_each_site_names_its_matrix(self):
        I = np.eye(5)
        I[2:4, 2:4] = 1.0  # beta_1 and beta_2 information rows coincide
        info = FisherInfo(I, 50)
        S = SubmodelId.from_indices([0, 1], 3)
        with pytest.raises(SingularInformationError, match="^submodel information for S4 "):
            m_matrix(info, S)
        with pytest.raises(SingularInformationError, match="^beta Schur complement"):
            rho_beta_blocks(info)
        I_bb = I[2:, 2:]
        blocks = RhoBetaBlocks(1.0, np.zeros((3, 1)), I_bb)
        with pytest.raises(SingularInformationError, match="^projected inverse-Q block for S4 "):
            g_matrix(blocks, S)

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

    @pytest.fixture
    def certified(self, monkeypatch):
        """(what, number of matrices) of every stacked check, slm._certificates,
        in call order: the one-matrix _certify and the sweep both call it."""
        calls = []
        certificates = slm._certificates

        def counting(M, what):
            calls.append((what, len(M)))
            return certificates(M, what)

        for module in (slm, simulate):
            monkeypatch.setattr(module, "_certificates", counting)
        return calls

    def test_one_certificate_per_wide_matrix(self, certified):
        """A theta-free FIC sweep and an sAFIC sweep certify the same matrices
        at p = 3 (8 subsets) as at p = 10 (1,024 subsets): FIC the wide
        information, sAFIC the wide information and its beta Schur complement."""
        counts = {}
        for p in (3, 10):
            data = random_dataset(np.random.default_rng(p), n=40, p=p)
            certified.clear()
            fic_table(FocusSpec("conditional_mean", location=0), data)
            n_fic = sum(k for _what, k in certified)
            certified.clear()
            safic_table(data, "uniform")
            counts[p] = (n_fic, sum(k for _what, k in certified))
        assert counts[3] == counts[10] == (1, 2)

    def test_one_certificate_per_wide_matrix_per_replication(self, certified):
        """The study (FIC, sAFIC and AIC) certifies each replication's wide
        information and beta Schur complement once, by one stacked check of
        each kind for the batch."""
        cfg = SimConfig(n=30, p=3, rho_true=0.4, beta_true=(0.0, 0.5, 0.5), reps=6, seed=1)
        assert monte_carlo(cfg).failures == []
        assert certified == [("information of S8", 6),
                             ("beta Schur complement of the wide information", 6)]


def _k_oracle(data, blocks, psi):
    """K = sum_i psi_i omega_i omega_i', unit by unit."""
    K = np.zeros((data.p, data.p))
    for i in range(data.n):
        w = _omega(i, data, blocks)
        K += psi[i] * np.outer(w, w)
    return K


class TestStackedTerms:
    """The sweep's sAFIC terms, one stacked solve of the risk kernel per subset
    size through the factor of K, against the traces through G = g_matrix and
    K summed unit by unit, within 1e-12 relative (bias2 near zero, as at the
    wide model, on the scale of the narrow model's delta'K delta)."""

    @pytest.mark.parametrize("scheme", ["uniform", "kernel"])
    @pytest.mark.parametrize("p", range(7))
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_projection_oracle(self, seed, p, scheme):
        data = random_dataset(np.random.default_rng([seed, p]), n=30, p=p)
        fit_w = fit_mle(data, SubmodelId.wide(p))
        blocks, delta = rho_beta_blocks(fit_w.info), delta_hat(fit_w)
        crit = simulate.CriterionSpec("safic", "sAFIC")
        if scheme == "uniform":
            psi = psi_uniform(data.n)
        else:
            h = median_bandwidth(data.X) if p else 1.0
            psi = psi_kernel(data.X, data.X[seed], h)
            crit = simulate.CriterionSpec("safic", "sAFIC", scheme="kernel",
                                          z0=tuple(data.X[seed]), bandwidth=h)
        K = _k_oracle(data, blocks, psi.psi)
        subsets = enumerate_submodels(p)
        _order, (bias2, penalty) = sweep_one(data, (crit,), subsets)["sAFIC"]
        G = [g_matrix(blocks, S) for S in subsets]
        r = [delta - g @ delta for g in G]
        Q = _q(blocks)
        penalty_oracle = [np.trace(g @ Q @ g.T @ K) for g in G]
        np.testing.assert_allclose(bias2, [v @ K @ v for v in r], rtol=1e-12,
                                   atol=1e-12 * (delta @ K @ delta))
        np.testing.assert_allclose(penalty, penalty_oracle, rtol=1e-12,
                                   atol=1e-12 * max(penalty_oracle))

    def test_a_kernel_on_two_units_gives_the_averaged_pointwise_risk(self):
        """A kernel centred between the two closest units, narrow enough that
        every other weight underflows to 0, makes K of rank 2 < p = 4.  The
        sweep's sAFIC score plus the shared rho term still equals the
        psi-average of pointwise_risk, subset by subset."""
        data = random_dataset(np.random.default_rng(3), n=12, p=4)
        d = np.linalg.norm(data.X[:, None] - data.X[None], axis=-1) + np.diag([np.inf] * 12)
        i, j = np.unravel_index(np.argmin(d), d.shape)
        z0, h = 0.5 * (data.X[i] + data.X[j]), 0.5 * d[i, j] / np.sqrt(1200.0)
        psi = psi_kernel(data.X, z0, h).psi
        assert np.flatnonzero(psi).tolist() == sorted([i, j])
        fit_w = fit_mle(data, SubmodelId.wide(4))
        blocks, delta = rho_beta_blocks(fit_w.info), delta_hat(fit_w)
        assert np.linalg.matrix_rank(_k_oracle(data, blocks, psi)) == 2
        crit = simulate.CriterionSpec("safic", "sAFIC", scheme="kernel", z0=tuple(z0),
                                      bandwidth=h)
        subsets = enumerate_submodels(4)
        _order, (bias2, penalty) = sweep_one(data, (crit,), subsets)["sAFIC"]
        shared = float(psi @ data.WY ** 2) / blocks.I_rr
        avg = [sum(psi[u] * pointwise_risk(u, S, delta, blocks, data) for u in (i, j))
               for S in subsets]
        np.testing.assert_allclose(bias2 + penalty + shared, avg, rtol=1e-10)
