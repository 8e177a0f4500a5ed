import json
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failcast import forest as forest_mod
from failcast import ocsvm as ocsvm_mod
from failcast import pipeline
from failcast.errors import (
    ConfigError,
    DegenerateTrainingError,
    FailcastError,
    InfeasibleNuError,
    ModelFormatError,
)
from failcast.features import class_ranks
from failcast.forest import ForestParams
from failcast.ocsvm import OcsvmModel, OcsvmParams
from failcast.pipeline import CascadeModel, GridSpec
from failcast.trace_model import LAGS, N_CLASSES, N_FEATURES, FailureType
from oracles import (
    BUNDLE_FILES, classify, forest_predict_batch, reference_fold_of, reference_grid_search_cv,
)

DIM = N_FEATURES


def make_data(n_normal=300, n_fail=60, seed=0, separation=0.5):
    """(X, y): normals cluster near 0.3, failures near 0.3 + separation."""
    rng = np.random.default_rng(seed)
    X = np.empty((n_normal + n_fail, DIM))
    for i in range(n_normal):
        X[i] = np.clip(rng.normal(0.3, 0.03, DIM), 0, 1)
    for i in range(n_fail):
        X[n_normal + i] = np.clip(rng.normal(0.3 + separation, 0.03, DIM), 0, 1)
    y = np.concatenate([np.zeros(n_normal, dtype=np.int64), 1 + np.arange(n_fail) % 3])
    return X, y


def one(model, x):
    """(prediction, score) for a single row, as a batch of one."""
    preds, scores = pipeline.predict_batch(model, np.asarray(x)[None, :])
    return int(preds[0]), float(scores[0])


def cascade(data, nu=0.1, gamma=1.0, trees=20, seed=0):
    X, y = data
    with mock.patch.dict(forest_mod.FIXED, mtry=4):
        return pipeline.train(
            X,
            y,
            OcsvmParams(nu=nu, gamma=gamma),
            ForestParams(n_trees=trees, rng_seed=seed),
        )


class TestTrain:
    def test_forest_trains_only_on_flagged_instances(self):
        X, y = make_data()
        model = cascade((X, y))
        n_fail = np.count_nonzero(y)
        stage2 = model.manifest["data"]["stage2_train"]
        # all failures flagged plus the leaked normal tail
        assert stage2 >= n_fail
        assert stage2 < len(y)
        counts = model.manifest["data"]["stage2_class_counts"]
        assert sum(counts[1:]) == n_fail

    def test_nu_one_routes_everything_to_stage_two(self):
        model = cascade(make_data(n_normal=80, n_fail=20), nu=1.0)
        # exact-boundary points (decision == 0) count as normal, so allow
        # the odd one out; everything else must reach stage 2
        assert model.manifest["data"]["stage2_train"] >= 100 - 2
        counts = model.manifest["data"]["stage2_class_counts"]
        assert sum(counts[1:]) == 20

    def test_no_surviving_failures_is_degenerate(self):
        # failures identical to the normal cluster center: stage 1 clears them
        rng = np.random.default_rng(1)
        normals = np.clip(rng.normal(0.3, 0.05, (200, DIM)), 0, 1)
        X = np.vstack([normals, np.full((3, DIM), 0.3)])
        y = np.repeat([FailureType.NORMAL, FailureType.IMMEDIATE_REBOOT], [200, 3])
        with pytest.raises(DegenerateTrainingError):
            pipeline.train(
                X,
                y,
                OcsvmParams(nu=0.05, gamma=0.5),
                ForestParams(n_trees=5, rng_seed=0),
            )

    def test_needs_both_classes(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            cascade((rng.random((50, DIM)), np.zeros(50, dtype=np.int64)))

    def test_stage_two_batch_is_exactly_the_flagged_set(self):
        X, y = make_data(n_normal=200, n_fail=40, seed=3)
        model = cascade((X, y), nu=0.15)
        flagged = int(np.sum(classify(model.ocsvm, X) == 1))
        assert model.manifest["data"]["stage2_train"] == flagged

    def test_manifest_records_hyperparameters_and_digest(self):
        model = cascade(make_data(n_normal=150, n_fail=30), nu=0.2, gamma=0.7, trees=9, seed=5)
        m = model.manifest
        assert m["ocsvm"]["nu"] == 0.2
        assert m["forest"]["n_trees"] == 9
        assert m["feature"] == {"lags": LAGS, "dim": DIM}
        assert len(m["data"]["sha256"]) == 64

    def test_digest_does_not_depend_on_the_label_dtype(self):
        # label tracks hold int8 classes, dataset files int64
        X, y = make_data(n_normal=100, n_fail=30)
        a = cascade((X, y))
        b = cascade((X, y.astype(np.int8)))
        assert a.manifest == b.manifest

    @pytest.mark.parametrize("dim", [5, 13, 18])
    def test_width_not_a_whole_number_of_lags_rejected_before_fitting(
        self, monkeypatch, dim
    ):
        self._refused_before_fitting(monkeypatch, dim)

    @pytest.mark.parametrize("dim", [12, 24, 71, 73, 144])
    def test_any_other_width_is_rejected_before_fitting(self, monkeypatch, dim):
        """Whole numbers of 12-feature lags too: only the LAGS-lag window trains."""
        self._refused_before_fitting(monkeypatch, dim)

    @staticmethod
    def _refused_before_fitting(monkeypatch, dim):
        def boom(*args, **kwargs):
            raise AssertionError("nothing may be fitted")

        monkeypatch.setattr(pipeline.ocsvm_mod, "train", boom)
        X = np.random.default_rng(0).random((40, dim))
        y = np.repeat([0, 1], 20)
        window = f"^{dim} features is not the 72 of the 6-lag window$"
        with pytest.raises(ConfigError, match=window):
            pipeline.train(X, y, OcsvmParams(), ForestParams())


class TestPredict:
    def test_cleared_points_are_normal_without_forest(self, monkeypatch):
        model = cascade(make_data())
        normal_x = np.full((1, DIM), 0.3)
        assert classify(model.ocsvm, normal_x).tolist() == [0]

        def boom(*args, **kwargs):
            raise AssertionError("forest must not run for cleared points")

        monkeypatch.setattr(pipeline.forest_mod, "predict_votes_batch", boom)
        preds, scores = pipeline.predict_batch(model, normal_x)
        assert preds.tolist() == [FailureType.NORMAL]
        assert scores[0] < 0.5

    def test_flagged_points_take_forest_class(self):
        model = cascade(make_data())
        far = np.full((1, DIM), 0.8)
        assert classify(model.ocsvm, far).tolist() == [1]
        preds, _ = pipeline.predict_batch(model, far)
        assert preds.tolist() == forest_predict_batch(model.forest, far).tolist()

    def test_forest_may_return_normal(self):
        # stage 2 trained on leaked normals only votes Normal for them
        X, y = make_data()
        model = cascade((X, y), nu=0.3)
        normals = X[y == FailureType.NORMAL]
        flagged_normals = normals[classify(model.ocsvm, normals) == 1]
        assert len(flagged_normals), "nu=0.3 must leak some normals"
        preds, _ = pipeline.predict_batch(model, flagged_normals)
        assert 0 in set(preds.tolist())

    def test_batch_matches_single_calls(self):
        data = make_data(n_normal=100, n_fail=30, seed=4)
        model = cascade(data)
        X = data[0][::5]
        preds, scores = pipeline.predict_batch(model, X)
        for x, p, s in zip(X, preds, scores):
            got_p, got_s = one(model, x)
            assert got_p == p
            assert got_s == pytest.approx(s, abs=1e-12)

    def test_empty_batch(self):
        model = cascade(make_data(n_normal=100, n_fail=30))
        preds, scores = pipeline.predict_batch(model, np.zeros((0, DIM)))
        assert preds.shape == (0,) and scores.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        # a NaN row used to get Normal from one path, 1.0 from another and
        # a NaN score from a third
        model = cascade(make_data(n_normal=100, n_fail=30))
        X = np.full((3, DIM), 0.3)
        X[1, 4] = bad
        with pytest.raises(FailcastError, match="row 1"):
            pipeline.predict_batch(model, X)

    @pytest.mark.parametrize("shape", [(DIM,), (1, DIM - 1), (1, DIM + 1), (1, 1, DIM)])
    def test_wrong_shape_rejected(self, shape):
        model = cascade(make_data(n_normal=100, n_fail=30))
        with pytest.raises(FailcastError):
            pipeline.predict_batch(model, np.full(shape, 0.3))


class TestScore:
    def _toy(self, rho, forest_class):
        sv = np.zeros((1, DIM))
        m1 = OcsvmModel(
            support_vectors=sv, alphas=np.array([1.0]), rho=rho, gamma=1.0
        )
        X = np.random.default_rng(0).random((10, DIM))
        y = np.full(10, forest_class)
        m2 = forest_mod.train(X, y, ForestParams(n_trees=4, rng_seed=0))
        return CascadeModel(ocsvm=m1, forest=m2, manifest={})

    def test_boundary_point_scores_quarter(self):
        x = np.full(DIM, 0.125)  # its squares sum exactly, so rho is the kernel value itself
        sv = np.zeros((1, DIM))
        rho = float(np.exp(-1.0 * np.sum((sv[0] - x) ** 2)))
        model = self._toy(rho=rho, forest_class=1)
        assert ocsvm_mod.decision(model.ocsvm, x[None, :])[0] == 0.0
        assert one(model, x) == (0, 0.25)

    def test_unanimous_failure_votes_score_one(self):
        model = self._toy(rho=1.5, forest_class=2)  # everything flagged
        x = np.full(DIM, 0.5)
        assert one(model, x) == (2, 1.0)

    def test_unanimous_normal_votes_score_half(self):
        model = self._toy(rho=1.5, forest_class=0)
        x = np.full(DIM, 0.5)
        assert one(model, x) == (0, 0.5)

    def test_score_prediction_consistency(self):
        model = cascade(make_data(seed=9))
        rng = np.random.default_rng(10)
        X = rng.random((100, DIM))
        preds, scores = pipeline.predict_batch(model, X)
        cleared = classify(model.ocsvm, X) == 0
        assert np.all(preds[cleared] == FailureType.NORMAL)
        assert np.all(scores[cleared] < 0.5)
        assert np.all(scores[~cleared] >= 0.5)
        assert np.all((scores > 0.0) & (scores <= 1.0))


class TestGridSearch:
    #: the 60-cell grid the README writes out, which an axis under test replaces
    README_GRID = dict(gammas=(2.0**-7, 2.0**-5, 2.0**-3, 2.0**-1, 2.0),
                       nus=(0.01, 0.05, 0.1, 0.2), tree_counts=(50, 100, 200))

    def test_single_cell_identity(self):
        data = make_data(n_normal=150, n_fail=30)
        grid = GridSpec(gammas=(1.0,), nus=(0.1,), tree_counts=(10,), folds=3)
        best, f3 = pipeline.grid_search_cv(*data, grid, 0)
        assert best == (1.0, 0.1, 10)
        assert f3.shape == (1, 1, 1, 3)

    def test_dominating_cell_wins(self):
        # nu=1e-6 is infeasible on folds this small, scoring 0 everywhere,
        # so the workable cell dominates on every fold
        data = make_data(n_normal=200, n_fail=40)
        grid = GridSpec(gammas=(1.0,), nus=(0.1, 1e-6), tree_counts=(10,), folds=3)
        best, f3 = pipeline.grid_search_cv(*data, grid, 0)
        assert best[1] == 0.1
        assert np.all(f3[0, 0, 0] > f3[0, 1, 0])

    def test_tie_breaks_toward_fewer_trees(self):
        data = make_data(n_normal=150, n_fail=30)
        grid = GridSpec(gammas=(1.0,), nus=(0.1,), tree_counts=(50, 10), folds=3)
        best, f3 = pipeline.grid_search_cv(*data, grid, 0)
        # well-separated classes: both tree counts score F3 1.0 on every fold
        assert np.array_equal(f3[0, 0, 0], f3[0, 0, 1])
        assert best[2] == 10

    def test_deterministic_given_seed(self):
        data = make_data(n_normal=120, n_fail=30)
        grid = GridSpec(gammas=(1.0, 0.3), nus=(0.1,), tree_counts=(5,), folds=3)
        best_a, f3_a = pipeline.grid_search_cv(*data, grid, 3)
        best_b, f3_b = pipeline.grid_search_cv(*data, grid, 3)
        assert best_a == best_b
        assert np.array_equal(f3_a, f3_b)

    @pytest.mark.parametrize(
        "data_seed, gammas, nus, tree_counts, folds",
        [
            (0, (1.0,), (0.1, 1e-6), (7, 3, 7), 3),
            (1, (1.0, 0.3), (1e-6, 0.2, 0.05), (2, 5), 2),
            (2, (0.5, 4.0), (0.1,), (4, 1, 6), 3),
        ],
    )
    def test_matches_the_per_cell_oracle(
        self, monkeypatch, data_seed, gammas, nus, tree_counts, folds
    ):
        monkeypatch.setitem(forest_mod.FIXED, "mtry", 4)
        # classes this close give F3 values that differ by cell and fold
        data = make_data(n_normal=120, n_fail=30, seed=data_seed, separation=0.1)
        grid = GridSpec(gammas=gammas, nus=nus, tree_counts=tree_counts, folds=folds)
        best, f3 = pipeline.grid_search_cv(*data, grid, 5)
        ref_best, ref_f3 = reference_grid_search_cv(*data, grid, 5)
        assert best == ref_best
        assert np.array_equal(f3, ref_f3)

    def test_one_warning_per_unusable_fit(self, caplog):
        data = make_data(n_normal=120, n_fail=30)
        grid = GridSpec(gammas=(1.0, 0.3), nus=(0.1, 1e-6), tree_counts=(7, 3, 7), folds=3)
        with caplog.at_level(logging.WARNING, logger="failcast.pipeline"):
            _, f3 = pipeline.grid_search_cv(*data, grid, 0)
        unusable = [r for r in caplog.records if "unusable" in r.getMessage()]
        # nu=1e-6 is infeasible for both gammas on all three folds
        assert len(unusable) == 2 * 3
        assert np.all(f3[:, 1] == 0.0)

    def test_a_grid_without_a_usable_fit_raises_the_first_error(self, caplog):
        data = make_data(n_normal=120, n_fail=30)
        grid = GridSpec(gammas=(1.0, 0.3), nus=(1e-6,), tree_counts=(3,), folds=3)
        with caplog.at_level(logging.WARNING, logger="failcast.pipeline"):
            with pytest.raises(InfeasibleNuError, match=r"^no grid fit is usable; the first, "
                               r"gamma=1 nu=1e-06 fold 0: nu\*n"):
                pipeline.grid_search_cv(*data, grid, 0)
        assert not caplog.records

    @pytest.mark.parametrize(
        "axes",
        [
            dict(nus=(0.1, 1.5)),
            dict(nus=(0.0,)),
            dict(gammas=(-1.0,)),
            dict(gammas=(0.0, 1.0)),
            dict(gammas=(0.125, float("inf"))),
            dict(gammas=(float("nan"),)),
            dict(tree_counts=(0,)),
            dict(folds=1),
            dict(nus=()),
        ],
    )
    def test_invalid_grid_rejected(self, axes):
        # an impossible value is a usage error, not a cell that scores 0.0
        with pytest.raises(FailcastError):
            GridSpec(**{**self.README_GRID, **axes})

    def test_grid_keeps_the_models_bounds(self):
        """A grid value is checked by the parameters it becomes, the tree bound included."""
        GridSpec(**{**self.README_GRID, "tree_counts": (forest_mod.MAX_TREES,)})
        with pytest.raises(ConfigError, match="n_trees"):
            GridSpec(**{**self.README_GRID, "tree_counts": (50, forest_mod.MAX_TREES + 1)})

    def test_too_few_failures_for_folds_rejected(self):
        data = make_data(n_normal=100, n_fail=3)
        grid = GridSpec(gammas=(1.0,), nus=(0.1,), tree_counts=(5,), folds=5)
        with pytest.raises(FailcastError, match="contains no failure instances"):
            pipeline.grid_search_cv(*data, grid, 0)


class TestStratifiedFolds:
    @settings(max_examples=300, derandomize=True)
    @given(data=st.data())
    def test_folds_are_the_class_by_class_round_robin(self, data):
        """Folds deal each class's ``class_ranks`` out round robin, as the per-class loop
        did, over labels with absent classes; a fold without both kinds is refused."""
        present = sorted(data.draw(st.sets(st.integers(0, N_CLASSES - 1), min_size=1)))
        y = np.array(data.draw(st.lists(st.sampled_from(present), max_size=60)), dtype=np.int64)
        k, seed = data.draw(st.integers(2, 5)), data.draw(st.integers(0, 2**63 - 1))
        ranks = class_ranks(y, np.random.default_rng(seed))
        for cls in set(y.tolist()):
            assert sorted(ranks[y == cls].tolist()) == list(range(np.count_nonzero(y == cls)))
        fold_of = reference_fold_of(y, k, np.random.default_rng(seed))
        assert np.array_equal(ranks % k, fold_of)
        want = [np.flatnonzero(fold_of == f).tolist() for f in range(k)]
        if all(0 < np.count_nonzero(y[w]) < len(w) for w in want):
            got = pipeline._stratified_folds(y, k, np.random.default_rng(seed))
            assert [f.tolist() for f in got] == want
        else:
            with pytest.raises(FailcastError, match=r"^fold \d+ contains no"):
                pipeline._stratified_folds(y, k, np.random.default_rng(seed))


class TestBundles:
    @pytest.fixture(autouse=True)
    def _mtry(self, monkeypatch):
        """A bundle of ``cascade`` states the mtry of its forest, so it loads with it."""
        monkeypatch.setitem(forest_mod.FIXED, "mtry", 4)

    def test_bundle_round_trip_preserves_decisions(self, tmp_path):
        data = make_data(n_normal=150, n_fail=30)
        model = cascade(data)
        pipeline.save_bundle(model, tmp_path / "bundle")
        restored = pipeline.load_bundle(tmp_path / "bundle")
        rng = np.random.default_rng(0)
        X = rng.random((50, DIM))
        a = pipeline.predict_batch(model, X)
        b = pipeline.predict_batch(restored, X)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_retraining_reproduces_bundle_bytes(self, tmp_path):
        data = make_data(n_normal=150, n_fail=30)
        a = cascade(data, seed=7)
        b = cascade(data, seed=7)
        pipeline.save_bundle(a, tmp_path / "a")
        pipeline.save_bundle(b, tmp_path / "b")
        for name in BUNDLE_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_archive_round_trip_and_reproducible_bytes(self, tmp_path):
        data = make_data(n_normal=120, n_fail=30)
        model = cascade(data)
        pipeline.save_archive(model, tmp_path / "m1.zip")
        pipeline.save_archive(model, tmp_path / "m2.zip")
        assert (tmp_path / "m1.zip").read_bytes() == (tmp_path / "m2.zip").read_bytes()
        restored = pipeline.load_bundle(tmp_path / "m1.zip")
        x = np.full(DIM, 0.8)
        assert one(restored, x) == one(model, x)

    @pytest.mark.parametrize("name", [pipeline.BUNDLE_OCSVM, pipeline.BUNDLE_FOREST])
    def test_truncated_bundle_file_rejected(self, tmp_path, name):
        model = cascade(make_data(n_normal=120, n_fail=30))
        pipeline.save_bundle(model, tmp_path)
        lines = (tmp_path / name).read_text().splitlines(keepends=True)
        (tmp_path / name).write_text("".join(lines[:-3]))
        with pytest.raises(ModelFormatError, match=name):
            pipeline.load_bundle(tmp_path)

    @pytest.mark.parametrize(
        "name", [pipeline.BUNDLE_OCSVM, pipeline.BUNDLE_FOREST, pipeline.BUNDLE_MANIFEST]
    )
    def test_binary_bundle_file_rejected(self, tmp_path, name):
        model = cascade(make_data(n_normal=120, n_fail=30))
        pipeline.save_bundle(model, tmp_path)
        (tmp_path / name).write_bytes(b"\xff\xfe\x00garbage\n")
        with pytest.raises(ModelFormatError, match=name):
            pipeline.load_bundle(tmp_path)

    def test_broken_manifest_rejected(self, tmp_path):
        model = cascade(make_data(n_normal=120, n_fail=30))
        pipeline.save_bundle(model, tmp_path)
        manifest = tmp_path / pipeline.BUNDLE_MANIFEST
        manifest.write_text(manifest.read_text()[:-20])
        with pytest.raises(ModelFormatError):
            pipeline.load_bundle(tmp_path)
        manifest.write_text("{}")
        with pytest.raises(ModelFormatError):
            pipeline.load_bundle(tmp_path)

    @pytest.mark.parametrize("lags", [2, 0, "1", None])
    def test_manifest_lags_must_fit_the_stage_width(self, tmp_path, lags):
        pipeline.save_bundle(cascade(make_data(n_normal=120, n_fail=30)), tmp_path)
        manifest = tmp_path / pipeline.BUNDLE_MANIFEST
        content = json.loads(manifest.read_text())
        content["feature"]["lags"] = lags
        manifest.write_text(json.dumps(content))
        with pytest.raises(ModelFormatError, match="feature.lags"):
            pipeline.load_bundle(tmp_path)

    @pytest.mark.parametrize("dim", [12, 71])
    def test_a_forest_of_another_width_is_refused_naming_it(self, tmp_path, dim):
        X, y = make_data(n_normal=120, n_fail=30)
        pipeline.save_bundle(cascade((X, y)), tmp_path)
        narrow = forest_mod.train(X[:, :dim], y, ForestParams(n_trees=3))
        with open(tmp_path / pipeline.BUNDLE_FOREST, "w") as f:
            forest_mod.save(narrow, f)
        with pytest.raises(ModelFormatError) as err:
            pipeline.load_bundle(tmp_path)
        assert str(err.value) == (
            f"{tmp_path / pipeline.BUNDLE_FOREST}: {dim} features is not the 72 of the 6-lag window"
        )

    @pytest.mark.parametrize(
        "key, value",
        [("n_trees", 21), ("mtry", 3), ("min_leaf", 2), ("max_depth", 8), ("rng_seed", 1)],
    )
    def test_manifest_forest_must_match_the_forest_header(self, tmp_path, key, value):
        pipeline.save_bundle(cascade(make_data(n_normal=120, n_fail=30)), tmp_path)
        manifest = tmp_path / pipeline.BUNDLE_MANIFEST
        content = json.loads(manifest.read_text())
        content["forest"][key] = value
        manifest.write_text(json.dumps(content))
        with pytest.raises(ModelFormatError, match=f"{pipeline.BUNDLE_MANIFEST}: forest.{key}"):
            pipeline.load_bundle(tmp_path)
