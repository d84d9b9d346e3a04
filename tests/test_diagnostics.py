import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import slmfic
from slmfic import (
    SpatialWeights,
    SubmodelId,
    aic,
    build_chain_lag1,
    fit_mle,
    morans_i,
)
from slmfic.errors import DataFormatError, ZeroVarianceError

from conftest import random_dataset, random_symmetric_adjacency


class TestMoran:
    def test_constant_rejected(self, chain75):
        with pytest.raises(ZeroVarianceError):
            morans_i(np.ones(75), chain75)

    def test_weights_without_a_positive_entry_rejected(self):
        W = SpatialWeights.from_adjacency(np.zeros((3, 3)))
        with pytest.raises(DataFormatError, match="no positive entry"):
            morans_i(np.array([1.0, 2.0, 0.5]), W)

    def test_length_mismatch(self, chain75):
        with pytest.raises(ValueError):
            morans_i(np.ones(10), chain75)

    def test_alternating_chain_is_minus_one(self):
        # perfect negative autocorrelation: every neighbor average is -x_i
        W = SpatialWeights.from_adjacency(build_chain_lag1(10), row_normalize=True)
        x = np.array([1.0, -1.0] * 5)
        res = morans_i(x, W)
        assert res.I == pytest.approx(-1.0, abs=1e-12)
        assert res.z < 0

    def test_expected_value(self, chain75):
        rng = np.random.default_rng(3)
        res = morans_i(rng.standard_normal(75), chain75)
        assert res.expected == pytest.approx(-1.0 / 74, abs=1e-15)
        assert 0 <= res.p_value <= 1

    def test_spatially_correlated_data_detected(self, chain75):
        hits = 0
        for rep in range(20):
            rng = np.random.default_rng([91, rep])
            eps = rng.standard_normal(75)
            y = np.linalg.solve(np.eye(75) - 0.5 * chain75.matrix.toarray(), eps)
            res = morans_i(y, chain75)
            hits += res.z > 1.645
        assert hits >= 18

    def test_null_calibration(self, chain75):
        # under iid noise |z| < 1.96 should hold for roughly 95% of draws
        inside = 0
        reps = 500
        for rep in range(reps):
            rng = np.random.default_rng([17, rep])
            res = morans_i(rng.standard_normal(75), chain75)
            inside += abs(res.z) < 1.96
        assert abs(inside / reps - 0.95) < 0.04

    @pytest.mark.parametrize("kind", ["raw", "row_normalized", "directed"])
    def test_moments_match_the_dense_formula(self, kind):
        rng = np.random.default_rng(11)
        U = rng.uniform(0.5, 2.0, (40, 40))
        A = random_symmetric_adjacency(rng, 40, density=0.1) * (U + U.T)
        if kind == "directed":  # not symmetric, spectrum all zero
            A = np.triu(A, k=1)
        W = SpatialWeights.from_adjacency(A, row_normalize=kind == "row_normalized")
        x = rng.standard_normal(40)
        res = morans_i(x, W)
        w, n = W.matrix, 40
        xt = x - x.mean()
        S0 = float(w.sum())
        I = (n / S0) * float(xt @ (w @ xt)) / float(xt @ xt)
        # the dense formula for the moments, with n x n temporaries
        w = w.toarray()
        S1 = 0.5 * float(((w + w.T) ** 2).sum())
        S2 = float(((w.sum(axis=1) + w.sum(axis=0)) ** 2).sum())
        EI = -1.0 / (n - 1)
        var = (n * n * S1 - n * S2 + 3.0 * S0 * S0) / ((n * n - 1.0) * S0 * S0) - EI * EI
        z = (I - EI) / np.sqrt(var)
        assert res.I == I  # bit for bit
        assert res.z == pytest.approx(z, rel=1e-12, abs=0)
        assert res.p_value == pytest.approx(2.0 * norm.sf(abs(z)), rel=1e-12, abs=0)

    def test_p_value_is_the_normal_tail_bit_for_bit(self, chain75):
        """At z from -2.9 to 8.3: iid draws and, for the far tail, lagged ones."""
        lag = np.linalg.inv(np.eye(75) - 0.9 * chain75.matrix.toarray())
        for rep in range(200):
            x = np.random.default_rng([5, rep]).standard_normal(75)
            res = morans_i(lag @ x if rep % 2 else x, chain75)
            assert res.p_value == 2.0 * norm.sf(abs(res.z))


def test_import_leaves_scipy_stats_out():
    """Importing the package, in a fresh interpreter, loads no scipy.stats:
    morans_i takes its normal tail from scipy.special."""
    src = str(Path(slmfic.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, slmfic; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         encoding="utf-8", check=True)
    assert out.stdout.strip() == "False"


class TestAic:
    def test_formula(self, rng):
        data = random_dataset(rng, p=3)
        fit = fit_mle(data, SubmodelId.from_indices([0, 2], 3), with_info=False)
        assert aic(fit) == pytest.approx(-2 * fit.loglik + 2 * 4, abs=1e-12)

    def test_narrow_penalty(self, rng):
        data = random_dataset(rng, p=3)
        fit = fit_mle(data, SubmodelId(0, 3), with_info=False)
        assert aic(fit) == pytest.approx(-2 * fit.loglik + 4, abs=1e-12)

    def test_useless_covariate_penalized(self):
        # adding a covariate that plays no role costs close to 2 points
        diffs = []
        for rep in range(20):
            rng = np.random.default_rng([311, rep])
            data = random_dataset(rng, n=120, p=3, beta=np.array([1.0, 0.5, 0.0]))
            a_small = aic(fit_mle(data, SubmodelId.from_indices([0, 1], 3), with_info=False))
            a_big = aic(fit_mle(data, SubmodelId.wide(3), with_info=False))
            diffs.append(a_big - a_small)
        # mean penalty is 2 minus the mean chi-square(1) improvement, i.e. about 1
        assert 0.0 < np.mean(diffs) < 2.0
