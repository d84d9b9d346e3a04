import numpy as np
import pytest

from slmfic import (
    FocusSpec,
    SubmodelId,
    Theta,
    delta_hat,
    enumerate_submodels,
    eval_focus,
    fic_score,
    fic_table,
    fic_terms,
    fit_mle,
    fit_subsets,
    m_matrix,
    submodel_info,
    wide_beta_jacobian,
)
from slmfic.errors import SweepTooLargeError
from slmfic.simulate import _rank_order

from conftest import random_dataset, random_info


class TestSubmodels:
    def test_enumeration_size(self):
        subs = enumerate_submodels(4)
        assert len(subs) == 16
        assert subs[0].mask == 0 and subs[-1].mask == 15

    def test_enumeration_cap(self):
        with pytest.raises(
            SweepTooLargeError,
            match=r"^exhaustive sweep over 2\^21 submodels refused \(cap p=20\)$",
        ):
            enumerate_submodels(21)

    def test_labels(self):
        assert SubmodelId.narrow(5).label() == "S1"
        assert SubmodelId.wide(5).label() == "S32"
        assert SubmodelId.from_indices([0], 5).label() == "S2"

    def test_membership(self):
        S = SubmodelId.from_indices([1, 3], 5)
        assert S.indices() == (1, 3)
        assert len(S) == 2


class TestSubmodelInfo:
    def test_wide_is_identity_selection(self, rng):
        info = random_info(rng, 3)
        assert np.array_equal(submodel_info(info, SubmodelId.wide(3)).matrix, info.matrix)

    def test_narrow_keeps_rho_sigma(self, rng):
        info = random_info(rng, 3)
        M = submodel_info(info, SubmodelId.narrow(3)).matrix
        assert M.shape == (2, 2)
        assert np.array_equal(M, info.matrix[:2, :2])

    def test_index_selection_oracle(self, rng):
        info = random_info(rng, 4)
        S = SubmodelId.from_indices([1, 3], 4)
        expected = info.matrix[np.ix_([0, 1, 3, 5], [0, 1, 3, 5])]
        assert np.array_equal(submodel_info(info, S).matrix, expected)


class TestMeanShift:
    def test_solves_stated_system(self, rng):
        info = random_info(rng, 3)
        S = SubmodelId.from_indices([0, 2], 3)
        m = m_matrix(info, S)
        I = info.matrix
        B = np.vstack([I[0, 2:], np.zeros(3), I[[2, 4], 2:]])
        I_S = I[np.ix_([0, 1, 2, 4], [0, 1, 2, 4])]
        assert np.allclose(I_S @ m, B, atol=1e-10)

    def test_wide_with_orthogonal_sigma2(self, rng):
        # with a zero (sigma^2, beta) block the wide mean shift is exact
        info = random_info(rng, 3, zero_sigma_beta=True)
        m = m_matrix(info, SubmodelId.wide(3))
        expected = np.vstack([np.zeros((2, 3)), np.eye(3)])
        assert np.allclose(m, expected, atol=1e-10)

    def test_shapes(self, rng):
        info = random_info(rng, 4)
        for S in enumerate_submodels(4):
            assert m_matrix(info, S).shape == (len(S) + 2, 4)


class TestDelta:
    def test_scaling(self, rng):
        data = random_dataset(rng, n=49, p=2)
        fit = fit_mle(data, SubmodelId.wide(2))
        assert np.allclose(delta_hat(fit), 7.0 * fit.theta_hat.beta, atol=1e-12)

    def test_requires_wide(self, rng):
        data = random_dataset(rng, p=2)
        fit = fit_mle(data, SubmodelId.narrow(2))
        with pytest.raises(ValueError):
            delta_hat(fit)


def _terms(J_S, J_w, info, S, D_n):
    """fic_terms on the one subset S, as two floats."""
    (bias2,), (variance,) = fic_terms([S], [J_S], J_w, info, D_n)
    return bias2, variance


class TestComponents:
    def test_wide_bias_zero(self, rng):
        info = random_info(rng, 3, zero_sigma_beta=True)
        S = SubmodelId.wide(3)
        J_S = rng.standard_normal((1, 5))
        D_n = rng.standard_normal(3)
        bias2, variance = _terms(J_S, J_S[:, 2:], info, S, D_n)
        assert bias2 < 1e-10
        assert variance > 0

    def test_brute_force_oracle(self, rng):
        # independent recomputation of both pieces for an omitted coefficient
        info = random_info(rng, 2)
        I = info.matrix
        S = SubmodelId.from_indices([0], 2)
        J_S = np.array([[0.5, -0.2, 1.5]])
        J_w = np.array([[1.5, 0.7]])
        D_n = np.array([2.0, -1.0])
        bias2, variance = _terms(J_S, J_w, info, S, D_n)

        idx = [0, 1, 2]
        I_S = I[np.ix_(idx, idx)]
        B = np.vstack([I[0, 2:4], np.zeros(2), I[2:3, 2:4]])
        m = np.linalg.inv(I_S) @ B
        b = J_S @ m - J_w
        assert bias2 == pytest.approx(float((b @ D_n) @ (b @ D_n)), abs=1e-12)
        assert variance == pytest.approx(
            float(np.trace(J_S @ np.linalg.inv(I_S) @ J_S.T)), abs=1e-12
        )

    def test_matches_mean_shift_oracle(self, rng):
        # every subset, k = 2: the bias matrix J_S m_S - J_w and the variance
        # tr(J_S I_S^{-1} J_S') from m_matrix and an explicit inverse
        info = random_info(rng, 4)
        D_n = rng.standard_normal(4)
        J_w = rng.standard_normal((2, 4))
        for S in enumerate_submodels(4):
            J_S = rng.standard_normal((2, len(S) + 2))
            bias2, variance = _terms(J_S, J_w, info, S, D_n)
            bD = (J_S @ m_matrix(info, S) - J_w) @ D_n
            I_S = submodel_info(info, S).matrix
            assert bias2 == pytest.approx(float(bD @ bD), rel=1e-10)
            assert variance == pytest.approx(
                float(np.trace(J_S @ np.linalg.inv(I_S) @ J_S.T)), rel=1e-10
            )

    def test_nonnegative(self, rng):
        info = random_info(rng, 3)
        D_n = rng.standard_normal(3)
        for S in enumerate_submodels(3):
            J_S = rng.standard_normal((2, len(S) + 2))
            J_w = rng.standard_normal((2, 3))
            bias2, variance = _terms(J_S, J_w, info, S, D_n)
            assert bias2 >= 0
            assert variance >= 0


def _columns(S):
    """Columns (rho, sigma^2, beta_S) of a wide-model Jacobian."""
    return [0, 1] + [2 + j for j in S.indices()]


def _row(data, spec, S, fit_S, fit_w):
    """FIC row of S with its Jacobian evaluated at the subset's own fit."""
    J_S = eval_focus(spec, fit_S.theta_hat, data, S, info=fit_S.info).jacobian
    J_w = wide_beta_jacobian(spec, fit_w.theta_hat, data, fit_w.info)
    return fic_score(S, *_terms(J_S, J_w, fit_w.info, S, delta_hat(fit_w)))


class TestScoreSweep:
    def test_wide_model_unbiased(self, rng):
        data = random_dataset(rng, n=50, p=3)
        wide = SubmodelId.wide(3)
        fit_w = fit_mle(data, wide)
        spec = FocusSpec("conditional_mean", location=0)
        row = _row(data, spec, wide, fit_w, fit_w)
        assert row.bias2 < 1e-10

    def test_full_sweep_rows(self, rng):
        data = random_dataset(rng, n=50, p=3)
        fit_w = fit_mle(data, SubmodelId.wide(3))
        spec = FocusSpec("conditional_mean", location=5)
        rows = []
        for S in enumerate_submodels(3):
            fit_S = fit_mle(data, S, with_info=False)
            rows.append(_row(data, spec, S, fit_S, fit_w))
        oracle = {r.submodel.mask: r.score for r in rows}
        table = fic_table(spec, data)
        assert [r.rank for r in table] == list(range(1, 9))
        assert [r.score for r in table] == pytest.approx([oracle[r.submodel.mask] for r in table],
                                                         rel=1e-10)
        assert table[0].score == pytest.approx(min(oracle.values()), rel=1e-10)

    @pytest.mark.parametrize(
        "spec",
        [
            FocusSpec("conditional_mean", location=2),
            FocusSpec("beta_coeffs"),
            FocusSpec("beta_coeffs", coeff_subset=(2, 0)),
        ],
    )
    def test_theta_free_focus_needs_no_submodel_fit(self, rng, spec):
        """The wide Jacobian's column slice is the subset's Jacobian exactly,
        at the subset's fit and at any theta, so fic_terms given the wide
        Jacobian scores it as given the subset's own."""
        data = random_dataset(rng, n=40, p=3)
        fit_w = fit_mle(data, SubmodelId.wide(3))
        J_wide = eval_focus(spec, fit_w.theta_hat, data, fit_w.submodel, info=fit_w.info).jacobian
        D_n = delta_hat(fit_w)
        for S in enumerate_submodels(3):
            J_slice = np.take(J_wide, _columns(S), axis=1)
            fit_S = fit_mle(data, S, with_info=False)
            away = Theta(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0), rng.standard_normal(len(S)))
            for theta in (fit_S.theta_hat, away):
                J_S = eval_focus(spec, theta, data, S).jacobian
                assert np.array_equal(J_slice, J_S)
                (bias2,), (variance,) = fic_terms([S], J_wide, J_wide[:, 2:], fit_w.info, D_n)
                assert (bias2, variance) == _terms(J_S, J_wide[:, 2:], fit_w.info, S, D_n)

    @pytest.mark.parametrize("kind", ["spillover", "max_eigen"])
    def test_theta_dependent_focus_is_not_a_slice(self, rng, kind):
        """Why the sweep evaluates these foci at every subset's own fit."""
        data = random_dataset(rng, n=40, p=3)
        fit_w = fit_mle(data, SubmodelId.wide(3))
        spec = FocusSpec(kind)
        J_wide = eval_focus(spec, fit_w.theta_hat, data, fit_w.submodel, info=fit_w.info).jacobian
        for S in enumerate_submodels(3)[:-1]:
            fit_S = fit_mle(data, S, with_info=False)
            J_S = eval_focus(spec, fit_S.theta_hat, data, S).jacobian
            assert not np.allclose(np.take(J_wide, _columns(S), axis=1), J_S)

    def test_column_permutation_invariance(self, rng):
        from slmfic import Dataset

        data = random_dataset(rng, n=40, p=3)
        perm = [2, 0, 1]
        data2 = Dataset(Y=data.Y, X=data.X[:, perm], W=data.W)
        spec = FocusSpec("conditional_mean", location=1)

        def score_of(d, indices):
            S = SubmodelId.from_indices(indices, 3)
            fit_w = fit_mle(d, SubmodelId.wide(3))
            fit_S = fit_mle(d, S, with_info=False)
            return _row(d, spec, S, fit_S, fit_w).score

        # variables {0, 2} of data are columns {1, 0} of the permuted design
        # the two fits differ only by the rounding of the permuted columns
        s1 = score_of(data, [0, 2])
        s2 = score_of(data2, [0, 1])
        assert s1 == pytest.approx(s2, rel=1e-4)


def _fitted_sweep(seed, p):
    """A random n = 30 dataset, its wide fit and every subset's fit."""
    data = random_dataset(np.random.default_rng([seed, p]), n=30, p=p)
    subsets = enumerate_submodels(p)
    fits = fit_subsets(data, subsets[:-1])
    fits[subsets[-1].mask] = fit_mle(data, subsets[-1])
    return data, subsets, fits


class TestStackedTerms:
    """fic_terms, one stacked solve per subset size, against the per-subset
    oracles J_S m_S and tr(J_S I_S^{-1} J_S'), within 1e-12 relative (bias2
    near zero, as at the wide model, on the scale of the centring term)."""

    @pytest.mark.parametrize("p", range(7))
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_oracle_for_every_focus(self, seed, p):
        data, subsets, fits = _fitted_sweep(seed, p)
        fit_w = fits[subsets[-1].mask]
        info, D_n = fit_w.info, delta_hat(fit_w)
        specs = [FocusSpec("conditional_mean", location=seed), FocusSpec("beta_coeffs"),
                 FocusSpec("spillover"), FocusSpec("max_eigen")]
        for spec in specs:
            J_wide = eval_focus(spec, fit_w.theta_hat, data, fit_w.submodel, info=info).jacobian
            J_w = J_wide[:, 2:]
            Js = [J_wide if S.is_wide else eval_focus(spec, fits[S.mask].theta_hat, data, S).jacobian
                  for S in subsets]
            bias2, variance = fic_terms(subsets, Js, J_w, info, D_n)
            if spec.kind in ("conditional_mean", "beta_coeffs"):  # theta-free: the same Jacobians
                assert np.array_equal(fic_terms(subsets, J_wide, J_w, info, D_n), (bias2, variance))
            bD = [(J_S @ m_matrix(info, S) - J_w) @ D_n for S, J_S in zip(subsets, Js)]
            variance_oracle = [np.trace(J_S @ np.linalg.inv(submodel_info(info, S).matrix) @ J_S.T)
                               for S, J_S in zip(subsets, Js)]
            scale = np.sum((J_w @ D_n) ** 2)
            np.testing.assert_allclose(bias2, [b @ b for b in bD], rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(variance, variance_oracle, rtol=1e-12,
                                       atol=1e-12 * max(variance_oracle))

    def test_subset_order_and_duplicates(self, rng):
        """Each entry belongs to its subset whatever the order of the list."""
        info = random_info(rng, 3)
        J_wide, D_n = rng.standard_normal((2, 5)), rng.standard_normal(3)
        subsets = enumerate_submodels(3)
        terms = np.array(fic_terms(subsets, J_wide, J_wide[:, 2:], info, D_n))
        order = [5, 0, 7, 5, 2]
        picked = [subsets[i] for i in order]
        assert np.array_equal(fic_terms(picked, J_wide, J_wide[:, 2:], info, D_n), terms[:, order])


from hypothesis import given
from hypothesis import strategies as st

SIZES4 = [len(S) for S in enumerate_submodels(4)]


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=16, max_size=16))
def test_ranking_is_a_permutation(scores):
    assert sorted(_rank_order(np.array(scores), SIZES4)) == list(range(16))


@given(st.lists(st.one_of(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 2.5, np.inf]),
                          st.floats(allow_nan=False)), min_size=16, max_size=16))
def test_ranking_breaks_ties_by_size_then_mask(scores):
    assert _rank_order(np.array(scores), SIZES4) == sorted(
        range(16), key=lambda m: (scores[m], SIZES4[m], m))


@given(st.lists(st.one_of(st.just(np.nan), st.sampled_from([-1.0, 0.0, 2.5]),
                          st.floats(allow_nan=False)), min_size=16, max_size=16))
def test_nan_scores_rank_last(scores):
    """NaN scores follow every number, in the tie order among themselves."""
    nan = [m for m in range(16) if np.isnan(scores[m])]
    numbers = [m for m in range(16) if not np.isnan(scores[m])]
    order = _rank_order(np.array(scores), SIZES4)
    assert order[:len(numbers)] == sorted(numbers, key=lambda m: (scores[m], SIZES4[m], m))
    assert order[len(numbers):] == sorted(nan, key=lambda m: (SIZES4[m], m))


class TestRanking:
    """_rank_order on the four subsets of p = 2, whose index is their mask."""

    def order(self, *scores):
        return _rank_order(np.array(scores), [0, 1, 1, 2])

    def test_ascending(self):
        assert self.order(3.0, 1.0, 2.0, 4.0) == [1, 2, 0, 3]

    def test_tie_prefers_smaller_model(self):
        assert self.order(5.0, 1.0, 5.0, 1.0) == [1, 3, 0, 2]  # {x1} beats {x1, x2}, S1 beats {x2}

    def test_tie_then_mask(self):
        assert self.order(5.0, 1.0, 1.0, 5.0) == [1, 2, 0, 3]
