import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmfic import SpatialWeights, build_chain_lag1, row_normalize
from slmfic.errors import (
    ComplexSpectrumError,
    DataFormatError,
    InvalidSizeError,
    IsolatedUnitError,
    RhoOutOfRangeError,
)

from conftest import random_symmetric_adjacency


class TestChain:
    def test_three_chain(self):
        assert build_chain_lag1(3).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_smallest_chain(self):
        assert build_chain_lag1(2).tolist() == [[0, 1], [1, 0]]

    def test_simulation_size(self):
        A = build_chain_lag1(75)
        assert A.shape == (75, 75)
        assert np.allclose(A, A.T)
        # interior units have exactly two neighbors
        assert A.sum(axis=1)[1:-1].tolist() == [2.0] * 73

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            build_chain_lag1(1)


class TestRowNormalize:
    def test_three_chain_rows(self):
        W = row_normalize(build_chain_lag1(3))
        assert W.matrix.tolist() == [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]]
        assert W.row_normalized
        assert W.rho_interval == (-1.0, 1.0)

    def test_two_cycle_unchanged(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        W = row_normalize(A)
        assert np.array_equal(W.matrix, A)

    def test_isolated_unit_named(self):
        A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(IsolatedUnitError) as exc:
            row_normalize(A)
        assert exc.value.index == 2

    def test_diagonal_stays_zero(self, rng):
        A = random_symmetric_adjacency(rng, 12)
        W = row_normalize(A)
        assert np.all(np.diag(W.matrix) == 0)

    def test_nonzero_diagonal_rejected(self):
        A = np.eye(3)
        with pytest.raises(InvalidSizeError):
            SpatialWeights.from_adjacency(A)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_non_finite_entry_named(self, bad):
        A = build_chain_lag1(4)
        A[1, 2] = bad
        with pytest.raises(DataFormatError, match="row 1, column 2"):
            SpatialWeights.from_adjacency(A, row_normalize=True)


class TestSpectrum:
    def test_three_chain_spectrum(self):
        W = row_normalize(build_chain_lag1(3))
        assert np.allclose(W.spectrum, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        W = SpatialWeights.from_adjacency(np.zeros((4, 4)))
        assert np.allclose(W.spectrum, 0.0)
        assert W.rho_interval == (-np.inf, np.inf)

    def test_two_cycle(self):
        W = SpatialWeights.from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(W.spectrum, [-1.0, 1.0])

    def test_complex_spectrum_rejected(self):
        # directed 3-cycle has complex eigenvalues
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ComplexSpectrumError):
            SpatialWeights.from_adjacency(A)

    def test_row_normalized_bounded(self, rng):
        for _ in range(10):
            W = row_normalize(random_symmetric_adjacency(rng, 15))
            assert np.max(np.abs(W.spectrum)) <= 1 + 1e-10
            lo, hi = W.rho_interval
            assert lo < 0 < hi
            assert -1 <= lo and hi <= 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_row_sums_are_one(n, seed):
    from conftest import random_symmetric_adjacency

    A = random_symmetric_adjacency(np.random.default_rng(seed), n)
    W = row_normalize(A)
    assert np.allclose(W.matrix.sum(axis=1), 1.0, atol=1e-12)


class TestLogDet:
    def test_identity_at_zero(self, rng):
        W = row_normalize(random_symmetric_adjacency(rng, 8))
        assert W.log_det_factor(0.0) == 0.0

    def test_three_chain_half(self):
        W = row_normalize(build_chain_lag1(3))
        assert W.log_det_factor(0.5) == pytest.approx(np.log(0.75), abs=1e-12)

    def test_boundary_excluded(self):
        W = row_normalize(build_chain_lag1(4))
        with pytest.raises(RhoOutOfRangeError):
            W.log_det_factor(1.0)

    def test_backend_agreement(self, rng):
        # spectrum product vs LU pivots on 100 random (W, rho) pairs
        for _ in range(100):
            n = int(rng.integers(4, 20))
            W = row_normalize(random_symmetric_adjacency(rng, n))
            lo, hi = W.rho_interval
            rho = rng.uniform(lo + 1e-3, hi - 1e-3)
            assert W.log_det_factor(rho, backend="spectrum") == pytest.approx(
                W.log_det_factor(rho, backend="lu"), abs=1e-8
            )

    def test_derivative_matches_fd(self, rng):
        W = row_normalize(random_symmetric_adjacency(rng, 10))
        rho, h = 0.3, 1e-6
        fd = (W.log_det_factor(rho + h) - W.log_det_factor(rho - h)) / (2 * h)
        assert W.log_det_rho_derivative(rho) == pytest.approx(fd, abs=1e-6)
