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
from slmfic.io import run_report_to_json
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
        assert W.rho_interval == (-np.inf, np.inf)

    def test_two_cycle(self):
        W = SpatialWeights.from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(W.spectrum, [-1.0, 1.0])

    def test_complex_spectrum_rejected(self):
        # directed 3-cycle has complex eigenvalues
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ComplexSpectrumError,
                           match=r"^weights matrix has complex eigenvalues \(max imaginary part 8\.660e-01\)$"):
            SpatialWeights.from_adjacency(A)

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


def _rook_lattice(side):
    """Binary rook-contiguity adjacency of a side x side grid, row-major units."""
    n = side * side
    A = np.zeros((n, n))
    idx = np.arange(n).reshape(side, side)
    for a, b in ((idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])):
        A[a.ravel(), b.ravel()] = A[b.ravel(), a.ravel()] = 1.0
    return A


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
        return _permuted(rng, _rook_lattice(12))
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
        tol = 1e-12 * np.max(np.abs(oracle))
        W = SpatialWeights.from_adjacency(A, row_normalize=row_normalized)
        assert "spectrum" not in vars(W)  # nothing computed before the first read
        with _counting_solvers() as calls:
            spectrum = W.spectrum
        assert np.max(np.abs(spectrum - oracle)) <= tol
        assert sum(calls.values()) == 1
        if kind == "complete":
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
        assert calls["eig_banded"] == 1
        assert np.max(np.abs(banded - oracle)) <= tol

    @pytest.mark.parametrize("row_normalized", [False, True])
    def test_chain75_is_bit_identical_to_dense(self, row_normalized):
        A = build_chain_lag1(75).toarray()
        W = SpatialWeights.from_adjacency(A, row_normalize=row_normalized)
        with _counting_solvers() as calls:
            spectrum = W.spectrum
        assert calls["eig_banded"] == 1
        assert spectrum.tobytes() == _dense_oracle(A, row_normalized).tobytes()

    def test_read_once_and_cached(self):
        W = SpatialWeights.from_adjacency(_rook_lattice(4), row_normalize=True)
        first = W.spectrum
        with _counting_solvers() as calls:
            again = W.spectrum
        assert again is first and sum(calls.values()) == 0
        assert W.rho_interval is W.rho_interval

    def test_non_symmetric_weights_read_at_construction(self):
        A = np.triu(np.ones((4, 4)), k=1)  # a DAG: not symmetric, spectrum all zero
        W = SpatialWeights.from_adjacency(A)
        assert W.symmetric_form is None and "spectrum" in vars(W)
        assert np.array_equal(W.spectrum, np.zeros(4))

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


def test_moran_command_reads_no_spectrum(tmp_path):
    side, n = 6, 36
    lattice = _rook_lattice(side)
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
    with _counting_solvers() as calls:
        assert run_report_to_json(monte_carlo(cfg, jobs=2)) == serial
    assert sum(calls.values()) == 1  # read once, by build_weights, before the weights are sent
    workers, *chunks = _PicklingExecutor.received
    assert workers == 2 and len(chunks) == 2  # one contiguous chunk per worker
    for replicate in chunks:
        _cfg, W, _A = replicate.args
        assert "spectrum" in vars(W)


@pytest.mark.parametrize("jobs, workers", [(4, 4), (5, 4), (64, 4)])
def test_no_more_workers_than_replications(monkeypatch, jobs, workers):
    # the stand-in starts no process, whatever the jobs count
    cfg = SimConfig(n=40, p=3, rho_true=0.4, beta_true=(0.0, 0.3, 0.3), reps=4, seed=99)
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", _PicklingExecutor)
    monkeypatch.setattr(_PicklingExecutor, "received", [])
    assert monte_carlo(cfg, jobs=jobs).failures == []
    assert _PicklingExecutor.received[0] == workers
    assert len(_PicklingExecutor.received) == 1 + workers  # chunks of one replication
