import io
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failcast import ocsvm as ocsvm_mod
from failcast.errors import ConfigError, ConvergenceError, InfeasibleNuError, ModelFormatError
from failcast.ocsvm import (
    OcsvmModel,
    OcsvmParams,
    decision,
    load,
    save,
    train,
)

from oracles import (
    classify,
    dual_objective,
    kkt_max_violation,
    qp_reference_objective,
    reference_masked_smo,
    reference_rbf,
    rbf_kernel,
    rbf_matrix,
    training_alphas,
)


class TestRbfKernel:
    def test_identical_points_give_one(self):
        a = np.array([0.1, 0.9, 0.3])
        assert rbf_kernel(a, a, gamma=2.0) == 1.0

    def test_unit_scaled_distance_gives_inverse_e(self):
        a = np.zeros(4)
        b = np.zeros(4)
        b[0] = 2.0  # ||a-b||^2 = 4 = 1/gamma
        assert rbf_kernel(a, b, gamma=0.25) == pytest.approx(np.exp(-1), rel=1e-12)

    def test_vanishing_gamma_limit(self):
        a = np.zeros(3)
        b = np.ones(3)
        assert rbf_kernel(a, b, gamma=1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros(3), np.zeros(4), gamma=1.0)

    @pytest.mark.parametrize("gamma", [0.125, 1 / 72, 1e308])
    def test_the_in_place_block_is_bit_equal_to_the_one_expression(self, gamma):
        """Rows repeated across the blocks too, whose distances round near zero."""
        rng = np.random.default_rng(29)
        A = rng.random((128, 72))
        B = np.vstack([A[:32], rng.random((1500, 72))])
        a_sq, b_sq = np.einsum("ij,ij->i", A, A), np.einsum("ij,ij->i", B, B)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ocsvm_mod._rbf(A, a_sq, B, b_sq, gamma)
        want = reference_rbf(A, a_sq, B, b_sq, gamma)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestTrain:
    def test_two_identical_points_full_nu(self):
        X = np.array([[0.3, 0.4], [0.3, 0.4]])
        model = train(X, OcsvmParams(nu=1.0, gamma=0.5))
        assert model.alphas.tolist() == [0.5, 0.5]
        assert decision(model, X[:1])[0] == pytest.approx(0.0, abs=1e-3)

    def test_nu_property_on_gaussian_cloud(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((200, 4))
        model = train(X, OcsvmParams(nu=0.1, gamma=0.3))
        g = decision(model, X)
        outlier_fraction = float(np.mean(g < 0.0))
        sv_fraction = model.n_support / len(X)
        assert outlier_fraction <= 0.1 + 0.03
        assert sv_fraction >= 0.1 - 0.03

    def test_small_instances_match_projected_gradient_oracle(self, monkeypatch):
        monkeypatch.setattr(ocsvm_mod, "TOL", 1e-6)
        rng = np.random.default_rng(21)
        for trial in range(6):
            n = int(rng.integers(5, 51))
            X = rng.random((n, 3))
            nu = float(rng.uniform(0.2, 0.9))
            if nu * n < 1:
                nu = 1.5 / n
            gamma = float(rng.uniform(0.1, 2.0))
            params = OcsvmParams(nu=nu, gamma=gamma)
            model = train(X, params)
            K = rbf_matrix(X, gamma)
            cap = 1.0 / (nu * n)
            ref = qp_reference_objective(K, cap)
            got = dual_objective(K, training_alphas(model, X))
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-9)

    def test_kkt_certificate_within_tolerance(self, monkeypatch):
        monkeypatch.setattr(ocsvm_mod, "TOL", 1e-5)
        rng = np.random.default_rng(3)
        X = rng.random((300, 6))
        params = OcsvmParams(nu=0.2, gamma=0.5)
        model = train(X, params)
        K = rbf_matrix(X, params.gamma)
        cap = 1.0 / (params.nu * len(X))
        alpha = training_alphas(model, X)
        assert kkt_max_violation(K, alpha, model.rho, cap) <= 10 * ocsvm_mod.TOL

    def test_kkt_certificate_against_exhaustive_oracle(self, monkeypatch):
        monkeypatch.setattr(ocsvm_mod, "TOL", 1e-7)
        rng = np.random.default_rng(4)
        X = rng.random((40, 3))
        params = OcsvmParams(nu=0.3, gamma=1.0)
        model = train(X, params)
        K = rbf_matrix(X, params.gamma)
        cap = 1.0 / (params.nu * len(X))
        alpha = training_alphas(model, X)
        assert kkt_max_violation(K, alpha, model.rho, cap) <= 10 * ocsvm_mod.TOL

    def test_dual_sums_to_one_with_box_bounds(self):
        rng = np.random.default_rng(5)
        X = rng.random((150, 8))
        nu = 0.15
        model = train(X, OcsvmParams(nu=nu, gamma=0.2))
        assert model.alphas.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.alphas > 0)
        assert np.all(model.alphas <= 1.0 / (nu * len(X)) + 1e-12)

    def test_infeasible_nu_rejected(self):
        X = np.random.default_rng(0).random((5, 3))
        with pytest.raises(InfeasibleNuError):
            train(X, OcsvmParams(nu=0.1, gamma=1.0))

    def test_iteration_cap_raises_with_violation(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((120, 5))
        monkeypatch.setattr(ocsvm_mod, "MAX_ITER", 3)
        monkeypatch.setattr(ocsvm_mod, "TOL", 1e-12)
        with pytest.raises(ConvergenceError, match="no convergence after 3 iterations") as err:
            train(X, OcsvmParams(nu=0.5, gamma=0.5))
        assert err.value.kkt_violation > 1e-12

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((0, 3)), OcsvmParams())

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            OcsvmParams(nu=0.0)
        with pytest.raises(ValueError):
            OcsvmParams(nu=1.2)
        with pytest.raises(ValueError):
            OcsvmParams(gamma=-1.0)
        with pytest.raises(TypeError):  # the iteration cap is the constant MAX_ITER
            OcsvmParams(max_iter=5)
        with pytest.raises(TypeError):  # and the tolerance the constant TOL
            OcsvmParams(tol=1e-3)

    @pytest.mark.parametrize("gamma", [np.inf, np.nan], ids=["gamma_inf", "gamma_nan"])
    def test_a_gamma_solving_cannot_meet_is_rejected(self, gamma):
        with pytest.raises(ConfigError):
            OcsvmParams(gamma=gamma)

    def test_nan_violation_stops_at_once(self):
        X = np.random.default_rng(0).random((200, 3))
        X[0, 0] = np.inf  # every kernel row through row 0 is NaN
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ConvergenceError) as err:
                train(X, OcsvmParams(nu=0.5, gamma=0.5))
        assert np.isnan(err.value.kkt_violation)
        assert time.perf_counter() - t0 < 1.0


class TestBoundsReadFromAlpha:
    """SMO reads each bound from alpha, and gives the same bits as the loop that keeps
    bound masks beside alpha and updates them at every step."""

    @staticmethod
    def _outcome(fit, X, params):
        """The fit's (support vectors, alphas, rho) bytes, or the type of error it raised."""
        try:
            model = fit(X, params)
        except (InfeasibleNuError, ConvergenceError) as exc:
            return type(exc)
        return (model.support_vectors.tobytes(), model.alphas.tobytes(),
                np.float64(model.rho).tobytes())

    @settings(max_examples=150, derandomize=True)
    @given(data=st.data())
    def test_matches_the_masked_loop(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n, d = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 4))
        X = rng.normal(size=(n, d))
        copies = data.draw(st.integers(0, n - 1))
        X[rng.integers(0, n, copies)] = X[rng.integers(0, n, copies)]
        nu = data.draw(st.one_of(
            st.just(1.0),
            st.integers(1, n).map(lambda m: m / n),
            st.floats(1.0 / n, 1.0),
        ))
        params = OcsvmParams(nu=nu, gamma=data.draw(st.sampled_from([0.05, 0.5, 4.0])))
        tol = data.draw(st.sampled_from([1e-3, 1e-4, 1e-8, 1e-12]))
        with mock.patch.object(ocsvm_mod, "TOL", tol):
            want = self._outcome(reference_masked_smo, X, params)
            assert self._outcome(train, X, params) == want

    @pytest.mark.parametrize("n, nu", [(20, 0.25), (8, 0.5), (30, 1.0), (7, 1.0)])
    def test_integer_nu_n_and_every_alpha_at_its_bound(self, n, nu):
        """nu*n whole: the last initial alpha is 0; nu = 1: every alpha stays at C."""
        assert nu * n == int(nu * n)
        X = np.random.default_rng(n).normal(size=(n, 3))
        X[1] = X[0]
        params = OcsvmParams(nu=nu, gamma=0.5)
        assert self._outcome(train, X, params) == self._outcome(reference_masked_smo, X, params)
        if nu == 1.0:
            assert np.all(train(X, params).alphas == 1.0 / n)


class TestDecision:
    def _toy_model(self):
        sv = np.array([[0.5, 0.5], [0.2, 0.8]])
        alphas = np.array([0.6, 0.4])
        return OcsvmModel(support_vectors=sv, alphas=alphas, rho=0.3, gamma=1.0)

    def test_far_query_approaches_minus_rho(self):
        model = self._toy_model()
        far = np.array([[1e4, -1e4]])
        assert decision(model, far)[0] == pytest.approx(-model.rho, abs=1e-12)

    def test_upper_bound_one_minus_rho(self):
        model = self._toy_model()
        rng = np.random.default_rng(1)
        assert np.all(decision(model, rng.random((100, 2))) <= 1.0 - model.rho + 1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decision(self._toy_model(), np.zeros((1, 5)))
        with pytest.raises(ValueError):
            decision(self._toy_model(), np.zeros(2))  # batches only

    def test_batch_matches_single(self):
        model = self._toy_model()
        rng = np.random.default_rng(2)
        X = rng.random((20, 2))
        batch = decision(model, X)
        singles = np.array([decision(model, X[i : i + 1])[0] for i in range(len(X))])
        assert np.allclose(batch, singles, atol=1e-15)

    def test_blocks_are_bit_identical_to_one_product(self):
        """With one BLAS thread, as the benchmark pins it: several threads
        split a product's rows by the size of the whole batch, so no blocking
        can reproduce an unblocked product bit for bit there."""
        script = """
import numpy as np
from failcast.ocsvm import OcsvmModel, decision
from oracles import reference_decision
rng = np.random.default_rng(3)
alphas = rng.random(500)
model = OcsvmModel(rng.random((500, 72)), alphas / alphas.sum(), 0.4, 0.125)
for m in (1, 2, 1009, 1010, 2017, 2047, 2049, 4097, 6121):
    X = rng.random((m, 72))
    assert np.array_equal(decision(model, X), reference_decision(model, X)), m
"""
        paths = [Path(__file__).parents[1] / "src", Path(__file__).parent]
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(map(str, paths)),
        }
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr

    def test_empty_batch(self):
        assert decision(self._toy_model(), np.zeros((0, 2))).shape == (0,)


class TestClassify:
    def test_threshold_sides(self):
        sv = np.array([[0.0, 0.0]])
        # rho computed from the kernel itself so the boundary case is exact
        x_in = np.array([0.1, 0.1])
        x_out = np.array([2.0, 2.0])
        gamma = 1.0
        rho_mid = 0.5
        model = OcsvmModel(
            support_vectors=sv, alphas=np.array([1.0]), rho=rho_mid, gamma=gamma
        )
        X = np.stack([x_in, x_out])
        assert decision(model, X)[0] > 0 and decision(model, X)[1] < 0
        assert classify(model, X).tolist() == [0, 1]

    def test_boundary_counts_as_normal(self):
        sv = np.array([[0.0, 0.0]])
        gamma = 0.7
        x = np.array([0.4, 0.3])
        rho = rbf_kernel(sv[0], x, gamma)  # decision(x) == 0 exactly
        model = OcsvmModel(
            support_vectors=sv, alphas=np.array([1.0]), rho=rho, gamma=gamma
        )
        assert decision(model, x[None, :])[0] == 0.0
        assert classify(model, x[None, :]).tolist() == [0]


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(8)
        X = rng.random((80, 7))
        model = train(X, OcsvmParams(nu=0.2, gamma=0.37))
        buf = io.StringIO()
        save(model, buf)
        restored = load(io.StringIO(buf.getvalue()))
        assert restored.rho == model.rho
        assert restored.gamma == model.gamma
        queries = rng.random((50, 7))
        a = decision(model, queries)
        b = decision(restored, queries)
        assert np.array_equal(a, b)

    def test_rejects_unknown_format(self):
        with pytest.raises(ModelFormatError):
            load(io.StringIO("not-a-model v9\n"))
        with pytest.raises(ModelFormatError):
            load(io.StringIO(""))

    def test_every_truncation_raises(self):
        rng = np.random.default_rng(9)
        model = train(rng.random((30, 3)), OcsvmParams(nu=0.3, gamma=0.5))
        buf = io.StringIO()
        save(model, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        queries = rng.random((20, 3))
        for k in range(len(lines)):
            with pytest.raises(ModelFormatError):
                load(io.StringIO("".join(lines[:k])))
        restored = load(io.StringIO("".join(lines)))
        assert np.array_equal(decision(restored, queries), decision(model, queries))

    @pytest.mark.parametrize(
        "pattern, replacement",
        [
            ("support_vectors ", "support_vectors 1"),  # header above the body
            ("\ndim 3\n", "\ndim 4\n"),  # rows one field short
            ("\ndim 3\n", "\ndim 2\n"),  # rows one field long
            ("\nrho ", "\nrho x"),  # not a number
            ("\ngamma ", "\ngama "),  # unknown header key
            (r"(support_vectors \d+\n\S+ )\S+", r"\1nan"),  # non-finite coordinate
            (r"(support_vectors \d+\n)\S+", r"\1inf"),  # non-finite alpha
            (r"\ngamma \S+", "\ngamma inf"),
            (r"\ngamma \S+", "\ngamma 0.0"),
            (r"\nrho \S+", "\nrho nan"),
        ],
    )
    def test_malformed_file_rejected(self, pattern, replacement):
        rng = np.random.default_rng(9)
        model = train(rng.random((30, 3)), OcsvmParams(nu=0.3, gamma=0.5))
        buf = io.StringIO()
        save(model, buf)
        text = buf.getvalue()
        broken = re.sub(pattern, replacement, text, count=1)
        assert broken != text
        with pytest.raises(ModelFormatError):
            load(io.StringIO(broken))

    def test_bad_body_line_is_named(self):
        rng = np.random.default_rng(9)
        model = train(rng.random((30, 3)), OcsvmParams(nu=0.3, gamma=0.5))
        buf = io.StringIO()
        save(model, buf)
        lines = buf.getvalue().splitlines()
        lines[8] = lines[8].rsplit(" ", 1)[0] + " nan"
        lines[9] = lines[9].rsplit(" ", 1)[0]
        with pytest.raises(ModelFormatError, match="^line 9: non-finite"):
            load(io.StringIO("\n".join(lines) + "\n"))
