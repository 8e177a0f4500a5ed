import inspect
import io
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from failcast import forest as forest_mod
from failcast.errors import ConfigError, ModelFormatError
from failcast.forest import (
    MAX_TREES,
    ForestParams,
    bootstrap_indices,
    first_trees,
    grow_tree,
    load,
    predict_votes_batch,
    save,
    train,
    _tree_rng,
)
from failcast.trace_model import FailureType

from oracles import (
    brute_force_best_split,
    forest_predict_batch,
    gini,
    one_tree,
    reference_best_split,
    reference_forest,
    reference_forest_save,
    reference_votes,
    split_of,
)


def saved(model) -> str:
    buf = io.StringIO()
    save(model, buf)
    return buf.getvalue()


def leaf_of(model, x) -> int:
    """The leaf of the first tree that the row x descends to."""
    node = model.roots[0]
    while model.feature[node] >= 0:
        node = node + 1 if x[model.feature[node]] <= model.threshold[node] else model.right[node]
    return node


def internal_nodes(model) -> int:
    """Splits reachable from the roots, counted by walking the child links."""
    count = 0
    stack = list(model.roots)
    while stack:
        node = stack.pop()
        if model.feature[node] >= 0:
            count += 1
            stack.extend([node + 1, model.right[node]])
    return count


class TestGini:
    def test_pure_node_is_zero(self):
        assert gini([10, 0, 0, 0]) == 0.0

    def test_even_two_way_split(self):
        assert gini([5, 5, 0, 0]) == pytest.approx(0.5)

    def test_uniform_four_way(self):
        assert gini([1, 1, 1, 1]) == pytest.approx(0.75)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            gini([0, 0, 0, 0])


class TestBestSplit:
    def test_separable_one_dimensional(self):
        X = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([0, 0, 1, 1])
        feature, threshold, decrease = split_of(X, y, [0])
        assert feature == 0
        assert threshold == pytest.approx(0.5)
        assert decrease == pytest.approx(0.5)

    def test_identical_features_mixed_labels(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 2, 0, 1, 2])
        assert split_of(X, y, [0, 1]) is None

    def test_matches_brute_force_on_random_micro_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 4))
            X = np.round(rng.random((n, d)), 2)
            y = rng.integers(0, 4, n)
            got = split_of(X, y, range(d))
            want = brute_force_best_split(X, y, range(d))
            if want is None:
                assert got is None
            else:
                assert got is not None
                # the chosen split must achieve the oracle's best decrease
                assert got[2] == pytest.approx(want[2], abs=1e-12)
                check = brute_force_best_split(
                    X[:, [got[0]]], y, [0]
                )
                assert check is not None

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_property_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        X = np.round(rng.random((n, d)), 1)
        y = rng.integers(0, 4, n)
        got = split_of(X, y, range(d))
        want = brute_force_best_split(X, y, range(d))
        if want is None:
            assert got is None
        else:
            assert got[2] == pytest.approx(want[2], abs=1e-12)


    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_property_equals_the_feature_by_feature_loop(self, data):
        """feature, threshold and decrease are exactly the per-feature loop's."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(0, 40))
        d = data.draw(st.integers(1, 8))
        # integer-valued columns tie often; a constant column has no cut at all
        X = rng.integers(0, data.draw(st.integers(1, 6)), (n, d)).astype(float)
        if data.draw(st.booleans()):
            X += rng.random((n, d))
        X[:, data.draw(st.integers(0, d - 1))] = data.draw(st.sampled_from([0.0, 1.5]))
        # a mirrored column ties its twin's best decrease at the mirrored cut
        twin, mirror = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        X[:, mirror] = -X[:, twin]
        y = rng.integers(0, data.draw(st.integers(1, 4)), n)
        # an unsorted subset with repeats; split_of passes it sorted and distinct
        feats = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=2 * d))
        assert split_of(X, y, feats) == reference_best_split(X, y, feats)

    def test_fewer_than_two_rows_or_constant_columns_give_none(self):
        X = np.array([[0.5, 2.0]])
        assert split_of(X, np.array([1]), [1, 0]) is None
        assert split_of(X[:0], np.array([], dtype=np.int64), [0]) is None
        X = np.full((5, 3), 0.25)
        assert split_of(X, np.array([0, 1, 2, 3, 0]), [2, 0, 1]) is None


class TestGrowTree:
    def test_pure_batch_is_single_leaf(self):
        X = np.random.default_rng(0).random((10, 3))
        y = np.full(10, 2)
        tree = one_tree(X, y, ForestParams(mtry=3), _tree_rng(0, 0))
        assert tree.feature.tolist() == [-1]
        assert tree.counts.tolist() == [[0, 0, 10, 0]]
        assert tree.leaf_class.tolist() == [2]

    def test_separable_data_reaches_zero_training_error(self):
        rng = np.random.default_rng(1)
        X = rng.random((60, 4))
        y = (X[:, 1] > 0.5).astype(int) + 2 * (X[:, 3] > 0.5).astype(int)
        tree = one_tree(X, y, ForestParams(mtry=4), _tree_rng(0, 0))
        assert np.array_equal(forest_predict_batch(tree, X), y)

    def test_fixed_seed_grows_identical_tree(self):
        rng = np.random.default_rng(2)
        X = rng.random((40, 5))
        y = rng.integers(0, 3, 40)
        params = ForestParams(mtry=2)
        a = one_tree(X, y, params, _tree_rng(9, 0))
        b = one_tree(X, y, params, _tree_rng(9, 0))
        assert saved(a) == saved(b)

    def test_a_tree_grows_until_no_cut_helps(self):
        rng = np.random.default_rng(4)
        # three values per feature: some leaves hold identical rows of mixed classes
        X = rng.integers(0, 3, (80, 3)).astype(float)
        y = rng.integers(0, 4, 80)
        tree = one_tree(X, y, ForestParams(mtry=3), _tree_rng(0, 0))
        leaves = np.array([leaf_of(tree, x) for x in X])
        assert len(np.unique(leaves)) > 1
        for leaf in np.unique(leaves):
            rows = leaves == leaf
            assert tree.counts[leaf].tolist() == np.bincount(y[rows], minlength=4).tolist()
            assert split_of(X[rows], y[rows], range(3)) is None

    def test_growth_limits_are_fixed(self):
        params = ForestParams()
        assert (params.min_leaf, params.max_depth) == (1, None)
        for limit in ({"min_leaf": 2}, {"max_depth": 3}):
            with pytest.raises(TypeError):
                ForestParams(**limit)
            with pytest.raises(ValueError):
                replace(params, **limit)
        assert "min_leaf" not in inspect.signature(forest_mod.best_split).parameters

    def test_no_weight_rejected(self):
        with pytest.raises(ValueError):
            grow_tree(np.ones((3, 2)), np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64),
                      ForestParams(), _tree_rng(0, 0))


class TestTrainMatchesTheCopyByCopyOracle:
    """``train`` grows on distinct rows with bootstrap counts as weights; the
    oracle grows on every copy. The saved forests must be the same bytes."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_saved_forest_equals_the_oracles(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(2, 80))
        d = data.draw(st.integers(1, 6))
        # rows copied from a small pool, on a few values each: copies and ties abound
        pool = rng.integers(0, data.draw(st.integers(1, 5)), (n, d)).astype(float)
        if data.draw(st.booleans()):
            pool += rng.random((n, d)).round(1)
        X = pool[rng.integers(0, data.draw(st.integers(1, n)), n)]
        # a mirrored column ties its twin's best decrease at the mirrored cut
        twin, mirror = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        X[:, mirror] = -X[:, twin]
        y = rng.integers(0, data.draw(st.integers(1, 4)), n)
        params = ForestParams(
            n_trees=data.draw(st.integers(1, 4)),
            mtry=data.draw(st.integers(1, d)),
            rng_seed=seed,
        )
        assert saved(train(X, y, params)) == saved(reference_forest(X, y, params))

    @pytest.mark.parametrize(
        "lower, upper",
        [(np.nextafter(1.0, 0.0), 1.0), (1.6e308, 1.7e308), (-1.7e308, -1.6e308)],
        ids=["adjacent", "overflow_up", "overflow_down"],
    )
    def test_a_midpoint_outside_the_cut_falls_back_to_the_lower_value(self, lower, upper):
        # (a + b) / 2 rounds onto b, or overflows: x <= threshold must still part the node
        with np.errstate(over="ignore"):
            assert not lower <= (lower + upper) / 2.0 < upper
            X = np.array([[lower], [upper]] * 4)
            y = np.array([0, 1] * 4)
            params = ForestParams(n_trees=5, mtry=1)
            model = train(X, y, params)
            assert saved(model) == saved(reference_forest(X, y, params))
        assert model.threshold[model.feature >= 0].tolist() == [lower] * 5
        assert np.array_equal(forest_predict_batch(model, X), y)


class TestTrain:
    def test_single_tree_equals_grow_tree_on_its_bootstrap_sample(self):
        rng = np.random.default_rng(5)
        X = rng.random((30, 4))
        y = rng.integers(0, 3, 30)
        params = ForestParams(n_trees=1, mtry=2, rng_seed=13)
        model = train(X, y, params)
        tree_rng = _tree_rng(13, 0)
        idx = bootstrap_indices(tree_rng, len(y))
        # every copy grown as its own row: the tree its bootstrap counts grow
        direct = one_tree(X[idx], y[idx], params, tree_rng)
        assert saved(model) == saved(direct)

    def test_fixed_seed_is_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.random((80, 6))
        y = rng.integers(0, 4, 80)
        params = ForestParams(n_trees=5, rng_seed=3, mtry=3)
        assert saved(train(X, y, params)) == saved(train(X, y, params))

    def test_tree_count_is_bounded(self):
        assert ForestParams(n_trees=MAX_TREES).n_trees == MAX_TREES
        for n_trees in (0, MAX_TREES + 1, 10**12):
            with pytest.raises(ConfigError):
                ForestParams(n_trees=n_trees)
        # a saved forest is held to the same bound when it is loaded
        text = saved(train(np.eye(3), np.arange(3), ForestParams(n_trees=1, mtry=1)))
        assert text.startswith(f"{forest_mod.MODEL_FORMAT}\ntrees 1\n")
        with pytest.raises(ModelFormatError, match="bad header value"):
            load(io.StringIO(text.replace("trees 1\n", f"trees {MAX_TREES + 1}\n", 1)))

    def test_bootstrap_unique_fraction_matches_simulation(self):
        n = 1000
        fractions = [
            len(np.unique(bootstrap_indices(_tree_rng(0, k), n))) / n
            for k in range(200)
        ]
        assert np.mean(fractions) == pytest.approx(1 - np.exp(-1), abs=0.03)


class TestFirstTrees:
    """A forest's first k trees are the forest grown with k trees.

    Grid search relies on it. Any draw whose order depends on the tree
    count, such as drawing every bootstrap sample before growing, breaks it.
    """

    def _data(self):
        rng = np.random.default_rng(14)
        return rng.random((60, 5)), rng.integers(0, 4, 60)

    @pytest.mark.parametrize("k", [1, 7, 20])
    def test_prefix_equals_the_smaller_forest(self, k):
        X, y = self._data()
        params = ForestParams(n_trees=20, mtry=2, rng_seed=4)
        prefix = first_trees(train(X, y, params), k)
        direct = train(X, y, replace(params, n_trees=k))
        assert prefix.params == direct.params
        for name in ("roots", "feature", "threshold", "right", "counts", "leaf_class"):
            assert np.array_equal(getattr(prefix, name), getattr(direct, name)), name
        assert saved(prefix) == saved(direct)

    def test_all_trees_is_the_whole_forest(self):
        X, y = self._data()
        model = train(X, y, ForestParams(n_trees=5, mtry=2))
        assert first_trees(model, 5) is model

    @pytest.mark.parametrize("k", [0, 6])
    def test_out_of_range_count_rejected(self, k):
        X, y = self._data()
        with pytest.raises(ValueError):
            first_trees(train(X, y, ForestParams(n_trees=5, mtry=2)), k)


class TestPredict:
    def _model(self, B=7, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.random((60, 5))
        y = rng.integers(0, 4, 60)
        return train(X, y, ForestParams(n_trees=B, mtry=3, rng_seed=seed)), X

    def test_single_tree_votes_one_hot(self):
        model, X = self._model(B=1)
        votes = predict_votes_batch(model, X[:1])
        assert votes.sum() == 1
        assert votes.max() == 1

    def test_identical_trees_vote_together(self):
        # one feature takes one value per class and the others are constant,
        # so every bootstrap sample that holds both classes grows the same tree
        X = np.zeros((30, 4))
        X[:, 1] = np.where(np.arange(30) % 2, 0.9, 0.1)
        y = (X[:, 1] > 0.5).astype(int)
        params = ForestParams(n_trees=4, mtry=4, rng_seed=5)
        model = train(X, y, params)
        assert len(model.feature) == 4 * 3
        votes = predict_votes_batch(model, X[3:4])
        assert votes.max() == 4 and votes.sum() == 4

    def test_vote_conservation(self):
        model, _ = self._model(B=9)
        rng = np.random.default_rng(2)
        assert np.all(predict_votes_batch(model, rng.random((200, 5))).sum(axis=1) == 9)

    def test_votes_match_per_tree_descent_oracle(self):
        model, X = self._model(B=5, seed=3)
        rng = np.random.default_rng(4)
        Q = rng.random((50, 5))
        assert np.array_equal(predict_votes_batch(model, Q), reference_votes(model, Q))

    def test_batch_votes_match_single(self):
        model, _ = self._model(B=6, seed=7)
        rng = np.random.default_rng(8)
        X = rng.random((40, 5))
        batch = predict_votes_batch(model, X)
        for i in range(len(X)):
            assert np.array_equal(batch[i], predict_votes_batch(model, X[i : i + 1])[0])

    def test_argmax_tie_breaks_toward_lowest_label(self):
        # votes [40, 40, 15, 5] -> Normal; [0,0,0,B] -> ForcibleDecommission
        assert int(np.argmax(np.array([40, 40, 15, 5]))) == 0
        assert int(np.argmax(np.array([10, 50, 30, 10]))) == 1
        model, _ = self._model(B=1)
        assert forest_predict_batch(model, np.zeros((1, 5)))[0] in set(FailureType)

    def test_dimension_mismatch_rejected(self):
        model, _ = self._model()
        with pytest.raises(ValueError):
            predict_votes_batch(model, np.zeros((1, 9)))
        with pytest.raises(ValueError):
            predict_votes_batch(model, np.zeros(5))

    def test_row_blocks_do_not_change_votes(self, monkeypatch):
        model, _ = self._model(B=7, seed=12)
        Q = np.random.default_rng(13).random((45, 5))
        whole = predict_votes_batch(model, Q)
        # 20 pairs per block: two rows of 7 trees at a time
        monkeypatch.setattr(forest_mod, "_BLOCK_PAIRS", 20)
        assert np.array_equal(predict_votes_batch(model, Q), whole)

    @given(seed=st.integers(0, 2**32 - 1), n_queries=st.sampled_from([0, 1, 37]))
    @settings(max_examples=40, deadline=None)
    def test_property_batch_equals_reference_walk(self, seed, n_queries):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 60)), int(rng.integers(1, 6))
        # few distinct values, so duplicates and ties are common
        X = rng.integers(0, 4, (n, d)) / 4.0
        y = rng.integers(0, 4, n)
        params = ForestParams(
            n_trees=int(rng.integers(1, 6)),
            mtry=int(rng.integers(1, d + 1)),
            rng_seed=seed % 1000,
        )
        model = train(X, y, params)
        Q = np.concatenate([X, rng.integers(-1, 6, (n, d)) / 4.0])[:n_queries]
        votes = predict_votes_batch(model, Q)
        assert votes.shape == (len(Q), 4)
        assert np.array_equal(votes, reference_votes(model, Q))


class TestSplitCounts:
    def test_pure_forest_has_no_splits(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.zeros(20, dtype=int)
        model = train(X, y, ForestParams(n_trees=4, mtry=3))
        assert model.feature_split_counts.sum() == 0

    def test_single_split_counted_once(self):
        X = np.array([[0.1], [0.9]])
        y = np.array([0, 1])
        model = one_tree(X, y, ForestParams(mtry=1), _tree_rng(0, 0))
        assert model.feature_split_counts.tolist() == [1]

    def test_counts_sum_equals_internal_nodes(self):
        rng = np.random.default_rng(9)
        X = rng.random((70, 4))
        y = rng.integers(0, 4, 70)
        model = train(X, y, ForestParams(n_trees=6, mtry=2, rng_seed=2))
        assert model.feature_split_counts.sum() == internal_nodes(model)


class TestSerialization:
    def test_round_trip_preserves_predictions_exactly(self):
        rng = np.random.default_rng(11)
        X = rng.random((90, 6))
        y = rng.integers(0, 4, 90)
        model = train(X, y, ForestParams(n_trees=8, mtry=3, rng_seed=4))
        text = saved(model)
        restored = load(io.StringIO(text))
        queries = rng.random((100, 6))
        assert np.array_equal(
            predict_votes_batch(model, queries), predict_votes_batch(restored, queries)
        )
        for name in ("roots", "feature", "threshold", "right", "counts"):
            assert np.array_equal(getattr(model, name), getattr(restored, name))
        assert saved(restored) == text

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_save_writes_the_node_by_node_listing(self, data):
        """``save`` formats its nodes a block at a time; the oracle writes one f-string
        per node. Small blocks put block edges before, at and after tree roots."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        n, d = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 4))
        # thresholds from 1e-6 to 1e5 in size, repr's scientific form among them
        X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 6, (n, d))
        # a single class grows trees that are one leaf each
        y = rng.integers(0, data.draw(st.integers(1, 4)), n)
        params = ForestParams(
            n_trees=data.draw(st.integers(1, 4)),
            mtry=data.draw(st.integers(1, d)),
            rng_seed=seed,
        )
        model = train(X, y, params)
        block = data.draw(st.sampled_from([1, 2, 3, 7, forest_mod.TEXT_BLOCK_ROWS]))
        with mock.patch.object(forest_mod, "TEXT_BLOCK_ROWS", block):
            assert saved(model) == reference_forest_save(model)

    def test_a_forest_of_single_leaves_saves_without_split_lines(self):
        rng = np.random.default_rng(3)
        X = rng.random((30, 2))
        model = train(X, np.full(30, 2), ForestParams(n_trees=3))
        assert (model.feature < 0).all()
        assert saved(model) == reference_forest_save(model)

    def test_rejects_unknown_format(self):
        with pytest.raises(ModelFormatError):
            load(io.StringIO("something-else v1\ntrees 0\n"))
        with pytest.raises(ModelFormatError):
            load(io.StringIO(""))

    def test_every_truncation_raises(self):
        rng = np.random.default_rng(14)
        X = rng.random((40, 3))
        model = train(X, rng.integers(0, 4, 40), ForestParams(n_trees=3, mtry=2))
        lines = saved(model).splitlines(keepends=True)
        for k in range(len(lines)):
            with pytest.raises(ModelFormatError):
                load(io.StringIO("".join(lines[:k])))
        assert saved(load(io.StringIO("".join(lines)))) == "".join(lines)

    @pytest.mark.parametrize(
        "pattern, replacement",
        [
            (r"trees 3\n", "trees 2\n"),  # body has more trees than the header
            (r"trees 3\n", "trees 4\n"),  # body has fewer trees than the header
            (r"tree 1\n", "tree 7\n"),  # tree out of order
            (r"\nL ", "\nL 0 "),  # leaf line with an extra field
            (r"\nN \d+ ", "\nN "),  # split line missing a field
            (r"\nN \d+ ", "\nN 99 "),  # split feature out of range
            (r"dim 3\n", "dim three\n"),  # not a number
            (r"\nN (\d+) \S+", r"\nN \1 nan"),  # non-finite threshold
            (r"\nN (\d+) \S+", r"\nN \1 -inf"),
        ],
    )
    def test_malformed_listing_rejected(self, pattern, replacement):
        rng = np.random.default_rng(14)
        X = rng.random((40, 3))
        model = train(X, rng.integers(0, 4, 40), ForestParams(n_trees=3, mtry=2))
        text = saved(model)
        broken = re.sub(pattern, replacement, text, count=1)
        assert broken != text
        with pytest.raises(ModelFormatError):
            load(io.StringIO(broken))

    def test_leaf_class_must_match_counts(self):
        text = (
            "forest-model v1\ntrees 1\ndim 1\n"
            "params mtry=1 min_leaf=1 max_depth=none seed=0\ntree 0\nL 2 5 0 1 0\n"
        )
        with pytest.raises(ModelFormatError):
            load(io.StringIO(text))
        assert load(io.StringIO(text.replace("L 2", "L 0"))).leaf_class.tolist() == [0]

    @pytest.mark.parametrize("limits", ["min_leaf=2 max_depth=none", "min_leaf=1 max_depth=3"])
    def test_growth_limits_other_than_unpruned_rejected(self, limits):
        """This program grows no other trees, so it reads no other limits."""
        text = "forest-model v1\ntrees 1\ndim 1\nparams mtry=1 {} seed=0\ntree 0\nL 0 5 0 1 0\n"
        assert load(io.StringIO(text.format("min_leaf=1 max_depth=none"))).n_trees == 1
        # the params line is read by key, in any order
        assert load(io.StringIO(text.format("max_depth=none min_leaf=1"))).n_trees == 1
        with pytest.raises(ModelFormatError, match=f"^{limits}: trees here grow unpruned"):
            load(io.StringIO(text.format(limits)))

    @pytest.mark.parametrize("count", ["-1", str(2**63), str(2**64)])
    def test_leaf_count_out_of_int64_range_rejected(self, count):
        text = (
            "forest-model v1\ntrees 1\ndim 1\n"
            f"params mtry=1 min_leaf=1 max_depth=none seed=0\ntree 0\nL 0 5 0 {count} 0\n"
        )
        with pytest.raises(ModelFormatError, match="line 6: leaf count out of range"):
            load(io.StringIO(text))
