import contextlib
import pickle

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from slmfic import SimConfig, SpatialWeights, build_chain_lag1, cli, monte_carlo, simulate
from slmfic import weights as weights_module
from slmfic.weights import validate_adjacency
from slmfic.io import run_report_to_json
from slmfic.errors import (
    DataFormatError,
    InvalidSizeError,
    IsolatedUnitError,
    RhoOutOfRangeError,
)

from conftest import ASYMMETRIC, directed_cycles, random_symmetric_adjacency


class TestChain:
    def test_three_chain(self):
        assert build_chain_lag1(3).toarray().tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_smallest_chain(self):
        assert build_chain_lag1(2).toarray().tolist() == [[0, 1], [1, 0]]

    def test_simulation_size(self):
        A = build_chain_lag1(75).toarray()
        assert A.shape == (75, 75)
        assert np.allclose(A, A.T)
        # interior units have exactly two neighbors
        assert A.sum(axis=1)[1:-1].tolist() == [2.0] * 73

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            build_chain_lag1(1)

    def test_non_square_adjacency_rejected(self):
        with pytest.raises(InvalidSizeError, match=r"adjacency must be square, got shape \(2, 3\)"):
            validate_adjacency(np.zeros((2, 3)))


class TestRowNormalize:
    def test_three_chain_rows(self):
        W = SpatialWeights.from_adjacency(build_chain_lag1(3), row_normalize=True)
        assert W.matrix.toarray().tolist() == [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]]
        assert W.row_normalized
        assert W.rho_interval == (-1.0, 1.0)

    def test_two_cycle_unchanged(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        W = SpatialWeights.from_adjacency(A, row_normalize=True)
        assert np.array_equal(W.matrix.toarray(), A)

    def test_sparse_input_with_duplicates_and_explicit_zeros(self):
        # the 3-chain with (0, 1) stored twice as 0.5 + 0.5, an explicit zero at (0, 2)
        # and row 1's columns out of order
        A = scipy.sparse.csr_array((np.array([0.5, 0.5, 0.0, 1.0, 1.0, 1.0]),
                                    np.array([1, 1, 2, 2, 0, 1]), np.array([0, 3, 5, 6])),
                                   shape=(3, 3))
        W = SpatialWeights.from_adjacency(A, row_normalize=True)
        expected = SpatialWeights.from_adjacency(build_chain_lag1(3).toarray(),
                                                 row_normalize=True).matrix
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(W.matrix, part), getattr(expected, part))
        assert A.nnz == 6  # the caller's array is left as it was

    def test_isolated_unit_named(self):
        A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(IsolatedUnitError) as exc:
            SpatialWeights.from_adjacency(A, row_normalize=True)
        assert exc.value.index == 2

    def test_diagonal_stays_zero(self, rng):
        A = random_symmetric_adjacency(rng, 12)
        W = SpatialWeights.from_adjacency(A, row_normalize=True)
        assert np.all(np.diag(W.matrix.toarray()) == 0)

    def test_nonzero_diagonal_rejected(self):
        A = np.eye(3)
        with pytest.raises(DataFormatError, match="unit 0 has a self-loop"):
            SpatialWeights.from_adjacency(A)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_non_finite_entry_named(self, bad):
        A = build_chain_lag1(4).toarray()
        A[1, 2] = bad
        with pytest.raises(DataFormatError, match="row 1, column 2"):
            SpatialWeights.from_adjacency(A, row_normalize=True)


class TestSpectrum:
    def test_three_chain_spectrum(self):
        W = SpatialWeights.from_adjacency(build_chain_lag1(3), row_normalize=True)
        assert np.allclose(W.spectrum, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        W = SpatialWeights.from_adjacency(np.zeros((4, 4)))
        assert np.allclose(W.spectrum, 0.0)
        assert W.rho_interval == (-np.inf, np.inf) and not W.complex_lower_end

    def test_two_cycle(self):
        W = SpatialWeights.from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(W.spectrum, [-1.0, 1.0])
        assert not W.complex_lower_end  # the real eigenvalue -1 sets it

    def test_directed_three_cycle(self):
        """Spectrum {1, -1/2 +- i sqrt(3)/2}: the interval comes from the real parts,
        (-2, 1), and the log-det is log(1 - rho^3), a float."""
        W = SpatialWeights.from_adjacency(directed_cycles(None, 3))
        assert "spectrum" not in vars(W)
        spectrum = W.spectrum
        assert np.iscomplexobj(spectrum)
        assert np.allclose(np.sort_complex(spectrum), [-0.5 - 0.75 ** 0.5 * 1j,
                                                       -0.5 + 0.75 ** 0.5 * 1j, 1.0])
        assert np.allclose(W.rho_interval, (-2.0, 1.0), rtol=1e-15, atol=0)
        # only the complex pair sets -2; row-normalized, the clip at -1 is the end
        assert W.complex_lower_end
        assert not SpatialWeights.from_adjacency(directed_cycles(None, 3), True).complex_lower_end
        for rho in (-1.9, -1.0, 0.0, 0.5, 0.99):
            value = W.log_det_factor(rho)
            assert type(value) is float
            assert abs(value - np.log1p(-rho**3)) <= 1e-12 * max(1.0, abs(value))

    def test_row_normalized_bounded(self, rng):
        for _ in range(10):
            A = random_symmetric_adjacency(rng, 15)
            W = SpatialWeights.from_adjacency(A, row_normalize=True)
            assert np.max(np.abs(W.spectrum)) <= 1 + 1e-10
            lo, hi = W.rho_interval
            assert lo < 0 < hi
            assert -1 <= lo and hi <= 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_row_sums_are_one(n, seed):
    from conftest import random_symmetric_adjacency

    A = random_symmetric_adjacency(np.random.default_rng(seed), n)
    W = SpatialWeights.from_adjacency(A, row_normalize=True)
    assert np.allclose(W.matrix.sum(axis=1), 1.0, atol=1e-12)


class TestLogDet:
    def test_identity_at_zero(self, rng):
        W = SpatialWeights.from_adjacency(random_symmetric_adjacency(rng, 8), row_normalize=True)
        assert W.log_det_factor(0.0) == 0.0

    def test_three_chain_half(self):
        W = SpatialWeights.from_adjacency(build_chain_lag1(3), row_normalize=True)
        assert W.log_det_factor(0.5) == pytest.approx(np.log(0.75), abs=1e-12)

    def test_boundary_excluded(self):
        W = SpatialWeights.from_adjacency(build_chain_lag1(4), row_normalize=True)
        with pytest.raises(RhoOutOfRangeError):
            W.log_det_factor(1.0)

    def test_backend_agreement(self, rng):
        # spectrum product vs LU pivots on 100 random (W, rho) pairs
        for _ in range(100):
            n = int(rng.integers(4, 20))
            A = random_symmetric_adjacency(rng, n)
            W = SpatialWeights.from_adjacency(A, row_normalize=True)
            lo, hi = W.rho_interval
            rho = rng.uniform(lo + 1e-3, hi - 1e-3)
            assert W.log_det_factor(rho, backend="spectrum") == pytest.approx(
                W.log_det_factor(rho, backend="lu"), abs=1e-8
            )

    def test_derivative_matches_fd(self, rng):
        W = SpatialWeights.from_adjacency(random_symmetric_adjacency(rng, 10), row_normalize=True)
        rho, h = 0.3, 1e-6
        fd = (W.log_det_factor(rho + h) - W.log_det_factor(rho - h)) / (2 * h)
        assert W.log_det_rho_derivative(rho) == pytest.approx(fd, abs=1e-6)


def _asymmetric_weights(kind):
    """Row-normalized kNN weights (k = 4, n = 80), or 27 unnormalized directed 3-cycles."""
    A = ASYMMETRIC[kind](np.random.default_rng(7), 80 if kind == "knn" else 81)
    return SpatialWeights.from_adjacency(A, row_normalize=kind == "knn")


@pytest.mark.parametrize("kind", sorted(ASYMMETRIC))
class TestComplexSpectrum:
    """Weights whose spectrum has conjugate pairs: the log-det against the LU oracle
    and its rho-derivatives against central differences, each a float."""

    def test_the_spectrum_is_complex_and_the_interval_its_real_parts(self, kind):
        W = _asymmetric_weights(kind)
        assert np.iscomplexobj(W.spectrum) and np.max(np.abs(W.spectrum.imag)) > 0.1
        # the non-real eigenvalues come in conjugate pairs
        upper, lower = (np.sort_complex(W.spectrum[sign * W.spectrum.imag > 0]) for sign in (1, -1))
        assert np.allclose(upper, np.sort_complex(np.conj(lower)), atol=1e-12)
        expected = (-1.0, 1.0) if kind == "knn" else (-2.0, 1.0)
        assert np.allclose(W.rho_interval, expected, rtol=1e-14, atol=0)
        assert W.complex_lower_end is (kind == "cycles")
        # unnormalized, the ends are the reciprocals of the extreme real parts
        raw = SpatialWeights.from_adjacency(W.matrix.toarray() > 0)
        real = np.linalg.eigvals(raw.matrix.toarray()).real
        assert np.allclose(raw.rho_interval, 1.0 / np.array([real.min(), real.max()]), rtol=1e-12)

    def test_log_det_matches_lu_across_the_interval(self, kind):
        W = _asymmetric_weights(kind)
        lo, hi = W.rho_interval
        rhos = lo + (hi - lo) * np.array([1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999])
        for rho in rhos:
            value = W.log_det_factor(rho)
            assert type(value) is float
            assert abs(value - W.log_det_factor(rho, backend="lu")) <= 1e-12 * max(1.0, abs(value))
        values = W.log_det_factor(rhos)
        assert values.dtype == float and values.shape == rhos.shape

    def test_derivatives_match_central_differences(self, kind):
        """Order k is -sum g^k: the first and second derivative of the log-det for
        k = 1, 2, and half the third for k = 3."""
        W = _asymmetric_weights(kind)
        lo, hi = W.rho_interval
        h = 1e-5
        for rho in lo + (hi - lo) * np.array([0.05, 0.3, 0.5, 0.7, 0.95]):
            d1, d2, d3 = W.log_det_rho_derivative(rho, (1, 2, 3))
            assert all(type(d) is float for d in (d1, d2, d3))
            for got, f, scale in [(d1, W.log_det_factor, 1.0), (d2, W.log_det_rho_derivative, 1.0),
                                  (d3, lambda r: W.log_det_rho_derivative(r, 2), 0.5)]:
                fd = scale * (f(rho + h) - f(rho - h)) / (2 * h)
                assert abs(got - fd) <= 1e-6 * max(1.0, abs(fd))
            together = W.log_det_rho_derivative(np.full(3, rho), (1, 2, 3))
            assert all(d.dtype == float for d in together)


def _per_order_sum(W, rho, k):
    """The log-det sum_i log(1 - rho*w_i) for k = 0, else -sum_i g_i^k over the
    spectrum of W, g^k as g, g * g or (g * g) * g: one whole pass per order, in
    no pieces."""
    g = np.multiply.outer(rho, W.spectrum)
    np.subtract(1.0, g, out=g)
    if k == 0:
        return np.sum(np.log(g), axis=-1)
    np.divide(W.spectrum, g, out=g)
    return -np.sum(g if k == 1 else g * g if k == 2 else g * g * g, axis=-1)


@pytest.mark.parametrize("graph", ["chain75", "lattice55"])
def test_one_pass_derivative_sums_equal_the_per_order_sums(graph, monkeypatch):
    """The log-det and the derivative sums of several orders, from one spectrum
    pass, are the per-order sums bit for bit, for a scalar rho, an (m,) array
    and a (2, m) array, in pieces of 1, 2, 7 and all entries; and one scalar
    rho gives the bits of each entry of an array of it, as a bracket end of
    the rho search takes one sum for every fit."""
    if graph == "chain75":
        W = SpatialWeights.from_adjacency(build_chain_lag1(75), row_normalize=True)
    else:  # the 55 x 55 rook lattice: paths along the rows plus paths along the columns
        path, eye = build_chain_lag1(55), scipy.sparse.eye_array(55)
        W = SpatialWeights.from_adjacency(scipy.sparse.kron(eye, path) + scipy.sparse.kron(path, eye))
    lo, hi = W.rho_interval
    rhos = lo + (hi - lo) * np.array([1e-6, 0.1, 0.37, 0.5, 0.8, 1.0 - 1e-6])
    for piece in (1, 2, 7, rhos.size * 2):
        monkeypatch.setattr(weights_module, "_CHUNK", piece * W.n + W.n - 1)
        for rho in (rhos, np.stack([rhos, rhos[::-1]]), *rhos):
            reference = [_per_order_sum(W, rho, k) for k in (0, 1, 2, 3)]
            for k, value in zip((0, 1, 2, 3), W._spectrum_sums(rho, (0, 1, 2, 3))):
                assert value.tobytes() == (reference[k] * (-1 if k else 1)).tobytes()
            assert np.asarray(W.log_det_factor(rho)).tobytes() == reference[0].tobytes()
            together = W.log_det_rho_derivative(rho, (1, 2, 3))
            assert len(together) == 3
            for k, value in zip((1, 2, 3), together):
                assert np.asarray(value).tobytes() == reference[k].tobytes()
                assert np.asarray(W.log_det_rho_derivative(rho, k)).tobytes() == \
                    reference[k].tobytes()
            assert type(together[0]) is (float if np.ndim(rho) == 0 else np.ndarray)
            assert type(W.log_det_factor(rho)) is type(together[0])
        for rho in rhos:
            each = W.log_det_rho_derivative(np.full(7, rho), (1, 2))
            for scalar, row in zip(W.log_det_rho_derivative(rho, (1, 2)), each):
                assert row.tobytes() == np.full(7, scalar).tobytes()


@pytest.mark.parametrize("kind", ["chain75", "cycles"])
def test_the_third_order_sum_is_the_power_sum(kind):
    """Order 3 takes g^3 as g^2 * g; against np.power(g, 3) it differs in the
    last bits only, on a real and on a complex spectrum: within 1e-15 of
    sum |g_i|^3, the scale of the sum's terms (the chain's sum is 0 at rho = 0)."""
    W = (SpatialWeights.from_adjacency(build_chain_lag1(75), row_normalize=True)
         if kind == "chain75" else _asymmetric_weights(kind))
    lo, hi = W.rho_interval
    rhos = lo + (hi - lo) * np.array([1e-6, 0.1, 0.37, 0.5, 0.8, 1.0 - 1e-6])
    g = W.spectrum / (1.0 - np.multiply.outer(rhos, W.spectrum))
    power, scale = np.sum(np.power(g, 3), axis=-1).real, np.sum(np.abs(g) ** 3, axis=-1)
    assert np.all(np.abs(-W.log_det_rho_derivative(rhos, 3) - power) <= 1e-15 * scale)


def _grid(rows, cols):
    """Binary rook-contiguity adjacency of a rows x cols grid, row-major units."""
    along, across = build_chain_lag1(cols), build_chain_lag1(rows)
    return (scipy.sparse.kron(scipy.sparse.eye_array(rows), along)
            + scipy.sparse.kron(across, scipy.sparse.eye_array(cols))).toarray()


def _sparse_graph(rng, n, degree=3.0):
    """Random symmetric graph: a random spanning path (no isolated unit) plus
    each other pair with probability degree / n, weights in [0.5, 2)."""
    A = np.triu(rng.random((n, n)) < degree / n, k=1).astype(float)
    path = rng.permutation(n)
    A[np.minimum(path[:-1], path[1:]), np.maximum(path[:-1], path[1:])] = 1.0
    A *= rng.uniform(0.5, 2.0, size=(n, n))
    return A + A.T


def _permuted(rng, A):
    order = rng.permutation(A.shape[0])
    return A[np.ix_(order, order)]


def _graph(kind, rng):
    if kind == "sparse":
        return _sparse_graph(rng, int(rng.integers(2, 90)))
    if kind == "lattice":
        return _permuted(rng, _grid(12, 12))
    if kind == "disconnected":
        A = np.zeros((60, 60))
        A[:25, :25] = _sparse_graph(rng, 25)
        A[25:, 25:] = _sparse_graph(rng, 35)
        return _permuted(rng, A)
    if kind == "chain":
        return _permuted(rng, build_chain_lag1(int(rng.integers(2, 120))).toarray())
    n = int(rng.integers(2, 40))
    return np.ones((n, n)) - np.eye(n) if kind == "complete" else np.zeros((n, n))


def _dense_oracle(A, row_normalized):
    """The spectrum of W from dense scipy.linalg.eigvalsh of D^-1/2 A D^-1/2 or of A."""
    if row_normalized:
        s = 1.0 / np.sqrt(A.sum(axis=1))
        A = (s[:, None] * A) * s[None, :]
    return np.sort(scipy.linalg.eigvalsh(A))


def _two_colourable(A) -> bool:
    """Whether the graph of A has a 2-colouring, by a search from each uncoloured unit."""
    adjacent = np.asarray(A) != 0
    colour = np.full(len(adjacent), -1)
    for root in range(len(adjacent)):
        if colour[root] >= 0:
            continue
        colour[root], stack = 0, [root]
        while stack:
            v = stack.pop()
            for u in np.flatnonzero(adjacent[v]):
                if colour[u] == colour[v]:
                    return False
                if colour[u] < 0:
                    colour[u] = 1 - colour[v]
                    stack.append(u)
    return True


def _assert_near_dense(spectrum, oracle, two_colourable):
    """The spectrum within 1e-12 max|w| of the dense oracle's; for a two-colourable
    graph, exactly +- symmetric and its squares within 1e-12 max|w|^2 of the
    oracle's, as each eigenvalue near 0 comes from its square."""
    scale = np.max(np.abs(oracle))
    if two_colourable:
        assert np.array_equal(spectrum, -spectrum[::-1])
        assert np.max(np.abs(spectrum**2 - oracle**2)) <= 1e-12 * scale**2
    else:
        assert np.max(np.abs(spectrum - oracle)) <= 1e-12 * scale


@contextlib.contextmanager
def _counting_solvers(**weights_patches):
    """Count the calls of scipy's eigen-solvers, by name, inside the block;
    `weights_patches` set attributes of slmfic.weights for its duration."""
    calls = dict.fromkeys(("eig_banded", "eigvalsh", "eigvals"), 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            real = getattr(scipy.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            mp.setattr(scipy.linalg, name, counted)
        for name, value in weights_patches.items():
            mp.setattr(weights_module, name, value)
        yield calls


class TestBandedSpectrum:
    """The lazily built spectrum (RCM band, dense beyond n / _BAND_RATIO) against dense eigvalsh."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["sparse", "lattice", "disconnected", "chain", "complete", "zero"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_dense_eigvalsh(self, kind, row_normalized, seed):
        A = _graph(kind, np.random.default_rng(seed))
        row_normalized = row_normalized and kind != "zero"
        oracle = _dense_oracle(A, row_normalized)
        two_colourable = _two_colourable(A)
        W = SpatialWeights.from_adjacency(A, row_normalize=row_normalized)
        assert "spectrum" not in vars(W)  # nothing computed before the first read
        with _counting_solvers() as calls:
            spectrum = W.spectrum
        _assert_near_dense(spectrum, oracle, two_colourable)
        assert sum(calls.values()) == (kind != "zero")  # the zero matrix needs no solve
        if kind == "complete" and len(A) > 2:  # K_2 is two-colourable
            assert calls["eigvalsh"] == 1
        # a sparse adjacency gives the same weights and spectrum as the dense one
        from_sparse = SpatialWeights.from_adjacency(scipy.sparse.csr_array(A),
                                                    row_normalize=row_normalized)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(from_sparse.matrix, part), getattr(W.matrix, part))
        assert from_sparse.spectrum.tobytes() == spectrum.tobytes()
        # the CSR arithmetic rounds as the dense formulas A / sums and (s_i a) s_j do
        sums = scipy.sparse.csr_array(A).sum(axis=1)
        s = 1.0 / np.sqrt(sums) if row_normalized else np.ones(len(A))
        if row_normalized:
            assert np.array_equal(W.matrix.toarray(), A / sums[:, None])
        S = (s[:, None] * A) * s[None, :]
        assert np.array_equal(W.symmetric_form.toarray(), 0.5 * (S + S.T))
        # the banded solver on every graph, whatever its bandwidth
        fresh = SpatialWeights.from_adjacency(A, row_normalize=row_normalized)
        with _counting_solvers(_BAND_RATIO=0) as calls:
            banded = fresh.spectrum
        assert calls["eig_banded"] == (kind != "zero")
        _assert_near_dense(banded, oracle, two_colourable)

    @pytest.mark.parametrize("row_normalized", [False, True])
    def test_chain75_is_symmetric_and_near_its_closed_form(self, row_normalized):
        """The chain's spectrum, from B'B of 37 columns, is exactly +- symmetric,
        and its squares lie within 1e-15 max|w|^2 of the closed form's:
        2 cos(k pi / 76), k = 1..75, raw, and cos(k pi / 74), k = 0..74,
        row-normalized.  The eigenvalues themselves are good to about
        eps ||M|| / (2 |w|): 6e-15 at the raw +-0.083 pair."""
        A = build_chain_lag1(75).toarray()
        W = SpatialWeights.from_adjacency(A, row_normalize=row_normalized)
        with _counting_solvers() as calls:
            spectrum = W.spectrum
        assert calls == {"eig_banded": 1, "eigvalsh": 0, "eigvals": 0}
        assert np.array_equal(spectrum, -spectrum[::-1])
        k = np.arange(75)
        exact = np.sort(np.cos(k * np.pi / 74) if row_normalized else 2 * np.cos((k + 1) * np.pi / 76))
        assert np.max(np.abs(spectrum**2 - exact**2)) <= 1e-15 * np.max(exact**2)

    def test_read_once_and_cached(self):
        W = SpatialWeights.from_adjacency(_grid(4, 4), row_normalize=True)
        first = W.spectrum
        with _counting_solvers() as calls:
            again = W.spectrum
        assert again is first and sum(calls.values()) == 0
        assert W.rho_interval is W.rho_interval

    def test_non_symmetric_weights_read_on_first_read(self):
        A = np.triu(np.ones((4, 4)), k=1)  # a DAG: not symmetric, spectrum all zero
        W = SpatialWeights.from_adjacency(A)
        assert W.symmetric_form is None and "spectrum" not in vars(W)
        with _counting_solvers() as calls:
            spectrum = W.spectrum
        assert calls == {"eig_banded": 0, "eigvalsh": 0, "eigvals": 1}
        assert spectrum.dtype == float and np.array_equal(spectrum, np.zeros(4))

    def test_symmetric_row_normalized_weights_from_non_symmetric_adjacency(self):
        # D^-1 A is symmetric although A is not: W itself is the symmetric form
        W = SpatialWeights.from_adjacency(np.array([[0.0, 2.0], [1.0, 0.0]]), row_normalize=True)
        assert W.symmetric_form is not None
        assert np.allclose(W.spectrum, [-1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("row_normalized", [False, True])
    def test_near_symmetric_adjacency_uses_its_symmetric_part(self, row_normalized):
        rng = np.random.default_rng(5)
        A = _sparse_graph(rng, 40)
        upper = np.triu(np.ones_like(A), k=1) * 1e-9  # above the diagonal only, zeros too
        A_up = A + upper
        S = A_up
        if row_normalized:
            s = 1.0 / np.sqrt(A_up.sum(axis=1))
            S = (s[:, None] * A_up) * s[None, :]
        oracle = np.sort(scipy.linalg.eigvalsh(0.5 * (S + S.T)))
        lower_only = np.sort(scipy.linalg.eigvalsh(S))  # what reading one triangle gives
        tol = 1e-12 * np.max(np.abs(oracle))
        assert np.max(np.abs(lower_only - oracle)) > 100 * tol
        got = SpatialWeights.from_adjacency(A_up, row_normalize=row_normalized).spectrum
        assert np.max(np.abs(got - oracle)) <= tol
        for seed in range(3):  # in any unit order
            order = np.random.default_rng(seed).permutation(len(A))
            W = SpatialWeights.from_adjacency(A_up[np.ix_(order, order)], row_normalize=row_normalized)
            assert np.max(np.abs(W.spectrum - oracle)) <= tol
        if not row_normalized:  # bit for bit: the symmetric part, or the perturbation below
            for same in (0.5 * (A_up + A_up.T), A_up.T.copy()):
                assert np.array_equal(SpatialWeights.from_adjacency(same).spectrum, got)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0]),
    )
    def test_symmetry_test_accepts_what_allclose_accepts(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        A = _sparse_graph(rng, n, degree=n / 2) * rng.choice([1e-9, 1.0, 1e6])
        i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
        # move A[i, j] by `scale` times the allclose tolerance of position (i, j)
        A[i, j] += scale * (1e-8 + 1e-5 * A[j, i])
        S = scipy.sparse.csr_array(A)
        assert (weights_module._symmetric_form(S, S, None) is not None) == np.allclose(A, A.T)


def _two_colourable_graph(kind, row_normalized):
    """A two-colourable adjacency.  Disconnected: a weighted 4 x 5 grid and a
    7-chain, plus 3 isolated units when raw (row normalization has none), in
    a shuffled unit order."""
    rng = np.random.default_rng(11)
    if kind.startswith("grid"):
        return _grid(*map(int, kind[4:].split("x")))
    if kind.startswith("chain"):
        return build_chain_lag1(int(kind[5:])).toarray()
    if kind == "zero":
        return np.zeros((6, 6))
    grid = _grid(4, 5) * rng.uniform(0.5, 2.0, (20, 20))
    parts = [np.triu(grid) + np.triu(grid, 1).T, build_chain_lag1(7).toarray()]
    parts += [] if row_normalized else [np.zeros((3, 3))]
    return _permuted(rng, scipy.linalg.block_diag(*parts))


TWO_COLOURABLE = ["grid6x6", "grid7x7", "grid5x8", "grid3x8", "chain2", "chain10", "chain11",
                  "disconnected", "zero"]


class TestTwoColourableSpectrum:
    """A two-colourable graph's spectrum is +-sqrt(eig(B'B)) plus |a| - |b| zeros:
    exactly +- symmetric, its squares near the dense ones, and every sum the
    model reads (orders 0-3) near the dense oracle's and the LU log-det."""

    @pytest.mark.parametrize("kind, row_normalized", [
        (kind, row_normalized) for kind in TWO_COLOURABLE for row_normalized in (False, True)
        if not (row_normalized and kind == "zero")])  # the zero matrix has no row normalization
    def test_matches_the_dense_oracle_and_lu(self, kind, row_normalized):
        A = _two_colourable_graph(kind, row_normalized)
        assert _two_colourable(A)
        W = SpatialWeights.from_adjacency(A, row_normalize=row_normalized)
        oracle = _dense_oracle(A, row_normalized)
        assert W.spectrum.shape == (len(A),)
        _assert_near_dense(W.spectrum, oracle, True)
        lo, hi = np.clip(W.rho_interval, -1.0, 1.0)
        rhos = lo + (hi - lo) * np.array([0.05, 0.2, 0.5, 0.8, 0.95])
        t = 1.0 - np.multiply.outer(rhos, oracle)
        g = oracle / t
        for k, got in zip(range(4), W._spectrum_sums(rhos, (0, 1, 2, 3))):
            terms = np.log(t) if k == 0 else g**k
            # relative to the sum of the terms' sizes: the odd sums are 0 at rho = 0
            scale = np.sum(np.abs(terms), axis=-1)
            assert np.all(np.abs(got - np.sum(terms, axis=-1)) <= 1e-12 * scale), k
            if k == 0:
                lu = [W.log_det_factor(rho, backend="lu") for rho in rhos]
                assert np.all(np.abs(got - lu) <= 1e-12 * scale)

    @pytest.mark.parametrize("row_normalized", [False, True])
    def test_the_half_size_problem_of_the_55_lattice(self, row_normalized):
        """The 3,025 units split 1,513 / 1,512: eig_banded receives the band of
        M = B'B, 1,512 columns, and M is exactly symmetric."""
        path, eye = build_chain_lag1(55), scipy.sparse.eye_array(55)
        W = SpatialWeights.from_adjacency(scipy.sparse.kron(eye, path) + scipy.sparse.kron(path, eye),
                                          row_normalize=row_normalized)
        handed, symmetric_spectrum = [], weights_module._symmetric_spectrum

        def recording(M):
            handed.append(M)
            return symmetric_spectrum(M)

        bands, eig_banded = [], scipy.linalg.eig_banded

        def banded(band, *args, **kwargs):
            bands.append(band.shape)
            return eig_banded(band, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights_module, "_symmetric_spectrum", recording)
            mp.setattr(scipy.linalg, "eig_banded", banded)
            spectrum = W.spectrum
        (M,) = handed
        assert M.shape == (1512, 1512) and len(bands) == 1 and bands[0][1] == 1512
        assert (M != M.T).nnz == 0
        assert np.array_equal(spectrum, -spectrum[::-1]) and spectrum[1512] == 0.0

    @pytest.mark.parametrize("row_normalized", [False, True])
    @pytest.mark.parametrize("kind", ["triangle", "queen"])
    def test_an_odd_cycle_keeps_the_one_solve(self, kind, row_normalized):
        """A triangle, and a queen lattice (rook plus diagonal neighbours), take
        one solve on the whole symmetric form, bit for bit."""
        if kind == "triangle":
            A = np.ones((3, 3)) - np.eye(3)
        else:
            diagonal = scipy.sparse.kron(build_chain_lag1(6), build_chain_lag1(6)).toarray()
            A = _grid(6, 6) + diagonal
        assert not _two_colourable(A)
        W = SpatialWeights.from_adjacency(A, row_normalize=row_normalized)
        handed, symmetric_spectrum = [], weights_module._symmetric_spectrum

        def recording(S):
            handed.append(S)
            return symmetric_spectrum(S)

        with _counting_solvers(_symmetric_spectrum=recording) as calls:
            spectrum = W.spectrum
        assert sum(calls.values()) == 1 and len(handed) == 1 and handed[0] is W.symmetric_form
        assert spectrum.tobytes() == symmetric_spectrum(W.symmetric_form).tobytes()


def test_moran_command_reads_no_spectrum(tmp_path):
    side, n = 6, 36
    lattice = _grid(side, side)
    rows, cols = np.nonzero(lattice)
    weights_path = tmp_path / "w.csv"
    weights_path.write_text("i,j,w\n" + "".join(f"{i},{j},1\n" for i, j in zip(rows, cols)),
                            encoding="utf-8")
    rng = np.random.default_rng(0)
    data_path = tmp_path / "data.csv"
    data_path.write_text("y,x1\n" + "".join(f"{y!r},{x!r}\n" for y, x in rng.standard_normal((n, 2)).tolist()),
                         encoding="utf-8")
    common = ["--data", str(data_path), "--weights", str(weights_path), "--response", "y",
              "--row-normalize"]
    with _counting_solvers() as calls:
        assert cli.main(["moran", *common, "--out", str(tmp_path / "moran.json")]) == 0
        assert sum(calls.values()) == 0
        assert cli.main(["fit", *common, "--out", str(tmp_path / "fit.json")]) == 0
        assert sum(calls.values()) == 1  # the counters are live: fit reads the spectrum


class _PicklingExecutor:
    """In-process stand-in for ProcessPoolExecutor: the mapped function goes
    through pickle once per chunk, as it does on its way to a worker process.
    `received` holds the worker count, then each chunk's unpickled copy."""

    received: list = []

    def __init__(self, max_workers):
        self.received.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        items = list(iterable)
        for start in range(0, len(items), chunksize):
            self.received.append(pickle.loads(pickle.dumps(fn)))
            yield from map(self.received[-1], items[start:start + chunksize])


def test_workers_receive_weights_with_their_spectrum(monkeypatch):
    cfg = SimConfig(n=40, p=3, rho_true=0.4, beta_true=(0.0, 0.3, 0.3), reps=4, seed=99)
    serial = run_report_to_json(monte_carlo(cfg, jobs=1))
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", _PicklingExecutor)
    monkeypatch.setattr(_PicklingExecutor, "received", [])
    factors, spatial_filter = [], simulate._spatial_filter

    def counting_filter(cfg, W):
        factors.append(W)
        return spatial_filter(cfg, W)

    monkeypatch.setattr(simulate, "_spatial_filter", counting_filter)
    with _counting_solvers() as calls:
        assert run_report_to_json(monte_carlo(cfg, jobs=2)) == serial
    assert sum(calls.values()) == 1  # read once, by build_weights, before the weights are sent
    workers, *chunks = _PicklingExecutor.received
    assert workers == 2 and len(chunks) == 2  # one contiguous chunk per worker
    for replicate in chunks:
        _cfg, W = replicate.args  # no factor of I - rho W: each worker builds its own
        assert "spectrum" in vars(W)
    assert [id(W) for W in factors] == [id(replicate.args[1]) for replicate in chunks]


@pytest.mark.parametrize("jobs, workers", [(4, 4), (5, 4), (64, 4)])
def test_no_more_workers_than_replications(monkeypatch, jobs, workers):
    # the stand-in starts no process, whatever the jobs count
    cfg = SimConfig(n=40, p=3, rho_true=0.4, beta_true=(0.0, 0.3, 0.3), reps=4, seed=99)
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", _PicklingExecutor)
    monkeypatch.setattr(_PicklingExecutor, "received", [])
    assert monte_carlo(cfg, jobs=jobs).failures == []
    assert _PicklingExecutor.received[0] == workers
    assert len(_PicklingExecutor.received) == 1 + workers  # chunks of one replication
