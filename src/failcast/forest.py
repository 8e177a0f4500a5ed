"""Random forest for 4-class failure classification.

Trees are grown on bootstrap resamples with Gini splits over a random
feature subset per node; prediction is a majority vote over the ensemble.
Each tree draws from its own rng stream seeded by (rng_seed, tree index),
so growth order and thread scheduling never change the model, and the
first B trees of a forest are the forest grown with B trees on the same
data and seed; grid search scores every tree count on such a prefix.

A forest is flat node arrays, after scikit-learn's ``Tree``: node i has
``feature[i]`` (-1 at a leaf), ``threshold[i]`` (x[feature] <= threshold
goes left), the right child's id ``right[i]`` (-1 at a leaf; the left
child is always i + 1), and ``counts[i]``, the training class counts at
a leaf (zeros at a split). Each tree's nodes are in pre-order, the trees
one after another, and ``roots[k]`` is tree k's root. Pre-order is the
order grow_tree visits nodes in and the ``forest-model v1`` file lists
them, so saving and loading are single passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, TextIO

import numpy as np

from .errors import ConfigError, ModelFormatError
from .tables import TEXT_BLOCK_ROWS, format_rows, merged_rows
from .trace_model import N_CLASSES

MODEL_FORMAT = "forest-model v1"
#: the most trees a forest may have; growth time and memory are linear in it
MAX_TREES = 10_000
#: the largest class count a leaf of a stored forest may hold (int64)
_MAX_COUNT = np.iinfo(np.int64).max
#: the rules of growth the method fixes: the candidate features drawn per node, about
#: the square root of the 72 features, and trees grown unpruned (Breiman, 2001); the
#: params line of a forest file and the manifest state them
FIXED = {"mtry": 9, "min_leaf": 1, "max_depth": None}


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_trees <= MAX_TREES:
            raise ConfigError(f"n_trees must be in [1, {MAX_TREES}], got {self.n_trees}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")

    # bench/tracer.py keys each forest by its rules of growth
    mtry = property(lambda self: FIXED["mtry"])
    min_leaf = property(lambda self: FIXED["min_leaf"])
    max_depth = property(lambda self: FIXED["max_depth"])


def _fixed_line() -> str:
    """FIXED as the params line states it: ``mtry=9 min_leaf=1 max_depth=none``."""
    return " ".join(f"{key}={'none' if value is None else value}" for key, value in FIXED.items())


@dataclass(eq=False)
class ForestModel:
    """Flat node arrays of every tree; see the module docstring for the layout."""

    params: ForestParams
    dim: int
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    leaf_class: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # fixed once here, so descent only looks a leaf's class up
        self.leaf_class = np.where(self.feature < 0, np.argmax(self.counts, axis=1), -1)

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def feature_split_counts(self) -> np.ndarray:
        return np.bincount(self.feature[self.feature >= 0], minlength=self.dim)


def best_split(
    X: np.ndarray,
    weights: np.ndarray,
    rows: np.ndarray,
    features: np.ndarray,
    counts: np.ndarray,
) -> Optional[tuple]:
    """Best Gini split of the node holding ``rows`` of X, or None when nothing improves.

    ``weights`` is (N_CLASSES + 1, n): row i's sample weight in the row of
    its class and in the last row. ``counts`` is the node's sum of them,
    and ``features`` are the candidates in ascending order. A cut lies
    between consecutive distinct values of a feature, at their midpoint
    (at the lower value where the midpoint rounds onto the upper one or
    overflows, so that a split always parts the node).
    All candidates are searched in one pass: a sort of each candidate
    column, one cumulative sum of the weights by sorted position, and one
    argmax over the (feature, cut) table with the other cuts masked out.
    The table is feature-major, so ties break toward the lowest feature,
    then the lowest threshold. The class counts at a cut do not depend on
    the order of equal values, so a row of weight k scores as k copies.
    Every sum over the classes runs in class order, so weights and copies
    give a decrease the same bits.

    Returns (feature, threshold, decrease, rows going left, rows going
    right, the left rows' sum of ``weights``).
    """
    if len(rows) < 2:
        return None
    *classes, size = counts.tolist()
    parent_gini = 1.0 - sum((c / size) * (c / size) for c in classes)
    # (mtry, m): each candidate's rows and values in sorted order
    order = X[rows, features[:, None]].argsort(axis=1)
    sorted_rows = rows[order]
    xv = X[sorted_rows, features[:, None]]
    # (side, class, candidate, cut): the weights left (side 0) and right (side 1)
    # of a cut after each sorted position; the last class row is their total
    sides = np.empty((2, N_CLASSES + 1, len(features), len(rows) - 1))
    np.add.accumulate(weights.take(sorted_rows[:, :-1], axis=1), axis=2, out=sides[0])
    np.subtract(counts[:, None, None], sides[0], out=sides[1])
    n_sides = sides[:, -1]
    share = sides[:, :-1] / n_sides[:, None]
    share *= share
    gini = 1.0 - np.add.reduce(share, axis=1)
    decrease = parent_gini - np.add.reduce(n_sides * gini) / size

    decrease = np.where(xv[:, :-1] < xv[:, 1:], decrease, -np.inf)
    f, i = divmod(int(decrease.argmax()), decrease.shape[1])
    if not decrease[f, i] > 0.0:
        return None
    lower, upper = xv[f, i], xv[f, i + 1]
    threshold = (lower + upper) / 2.0
    if not lower <= threshold < upper:  # rounded onto the upper value, or overflowed
        threshold = lower
    return (int(features[f]), float(threshold), float(decrease[f, i]),
            sorted_rows[f, : i + 1], sorted_rows[f, i + 1 :], sides[0, :, f, i].copy())


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    weight: np.ndarray,
    rng: np.random.Generator,
) -> tuple[list, list, list, list]:
    """Grow one tree on the rows of X, row i counted ``weight[i]`` times.

    Returns the tree's pre-order (feature, threshold, right, counts) node
    lists, in the layout of the module docstring, with child ids counted
    from the tree's root. Growth is iterative, so deep chains never hit
    the recursion limit. Nodes are visited in pre-order and the feature
    subset of each node is drawn in that order, so a fixed rng yields a
    bit-identical tree, and weights grow the tree their copies would.
    """
    if not np.any(weight):
        raise ValueError("cannot grow a tree on an empty batch")
    d = X.shape[1]
    mtry = min(FIXED["mtry"], d)
    weights = np.zeros((N_CLASSES + 1, len(y)))
    weights[y, np.arange(len(y))] = weight
    weights[-1] = weight
    feature, threshold, right, counts = [], [], [], []
    no_counts = np.zeros(N_CLASSES)
    # (rows, their weights' sum, id of the split whose right child this is, or -1)
    stack = [(np.flatnonzero(weight), weights.sum(axis=1), -1)]
    while stack:
        rows, node_counts, parent = stack.pop()
        if parent >= 0:
            right[parent] = len(feature)
        right.append(-1)
        split = None
        if np.count_nonzero(node_counts[:-1]) > 1:  # else the node is pure
            feats = rng.choice(d, size=mtry, replace=False)
            feats.sort()
            split = best_split(X, weights, rows, feats, node_counts)
        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            counts.append(node_counts[:-1])
            continue
        f, thr, _, left_rows, right_rows, left_counts = split
        feature.append(f)
        threshold.append(thr)
        counts.append(no_counts)
        # push right first so the left child is visited (and draws rng) first
        stack.append((right_rows, node_counts - left_counts, len(feature) - 1))
        stack.append((left_rows, left_counts, -1))
    return feature, threshold, right, counts


def _arrays_model(params, dim, roots, feature, threshold, right, counts) -> ForestModel:
    """A forest from pre-order node lists; left children follow their parent."""
    return ForestModel(
        params=params,
        dim=dim,
        roots=np.array(roots, dtype=np.intp),
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=float),
        right=np.array(right, dtype=np.intp),
        counts=np.array(counts, dtype=np.int64).reshape(-1, N_CLASSES),
    )


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tree_index])


def bootstrap_indices(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws with replacement from range(n)."""
    return rng.integers(0, n, size=n)


def train(X: np.ndarray, y: np.ndarray, params: ForestParams) -> ForestModel:
    """Grow the ensemble on independent bootstrap resamples of the data.

    Each tree grows on the distinct rows of its resample, weighted by
    their number of draws.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise ValueError("training data is empty")
    roots, feature, threshold, right, counts = [], [], [], [], []
    for k in range(params.n_trees):
        rng = _tree_rng(params.rng_seed, k)
        weight = np.bincount(bootstrap_indices(rng, len(y)), minlength=len(y))
        tree = grow_tree(X, y, weight, rng)
        root = len(feature)
        roots.append(root)
        feature += tree[0]
        threshold += tree[1]
        right += [r + root if r >= 0 else -1 for r in tree[2]]
        counts += tree[3]
    return _arrays_model(params, X.shape[1], roots, feature, threshold, right, counts)


def first_trees(model: ForestModel, n_trees: int) -> ForestModel:
    """The forest of ``model``'s first ``n_trees`` trees; see the prefix invariant above."""
    if not 1 <= n_trees <= model.n_trees:
        raise ValueError(f"n_trees must be in [1, {model.n_trees}], got {n_trees}")
    if n_trees == model.n_trees:
        return model
    end = model.roots[n_trees]
    nodes = (model.feature, model.threshold, model.right, model.counts)
    params = replace(model.params, n_trees=n_trees)
    return _arrays_model(params, model.dim, model.roots[:n_trees], *(a[:end] for a in nodes))


# (row, tree) pairs that descend together; bounds the working arrays
_BLOCK_PAIRS = 1 << 16


def predict_votes_batch(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """(n, 4) vote counts; each row sums to the ensemble size.

    All trees descend at once, level by level: each step moves every
    (row, tree) pair still at a split one level down. Rows go in blocks
    of a fixed number of pairs, so memory does not grow with the batch.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"expected an (n, {model.dim}) batch, got shape {X.shape}")
    n_trees = model.n_trees
    step = max(1, _BLOCK_PAIRS // n_trees)
    votes = np.empty((len(X), N_CLASSES), dtype=np.int64)
    for lo in range(0, len(X), step):
        block = X[lo : lo + step]
        rows = np.repeat(np.arange(len(block)), n_trees)
        node = np.tile(model.roots, len(block))
        live = np.arange(len(node))
        while len(live):
            at = node[live]
            f = model.feature[at]
            inner = f >= 0
            live, at, f = live[inner], at[inner], f[inner]
            goes_left = block[rows[live], f] <= model.threshold[at]
            node[live] = np.where(goes_left, at + 1, model.right[at])
        slots = rows * N_CLASSES + model.leaf_class[node]
        votes[lo : lo + len(block)] = np.bincount(
            slots, minlength=len(block) * N_CLASSES
        ).reshape(-1, N_CLASSES)
    return votes


def save(model: ForestModel, out: TextIO) -> None:
    """Pre-order node listing per tree; thresholds keep full precision."""
    out.write(
        f"{MODEL_FORMAT}\ntrees {model.n_trees}\ndim {model.dim}\n"
        f"params {_fixed_line()} seed={model.params.rng_seed}\n"
    )
    # each tree's listing opens with its "tree k" line
    heads = np.full(len(model.feature), "", dtype=object)
    heads[model.roots] = [f"tree {k}\n" for k in range(model.n_trees)]
    leaf_format = "L %d" + " %d" * N_CLASSES + "\n"
    for lo in range(0, len(model.feature), TEXT_BLOCK_ROWS):
        nodes = slice(lo, lo + TEXT_BLOCK_ROWS)
        split = model.feature[nodes] >= 0
        text = format_rows("N %d %r\n", model.feature[nodes][split], model.threshold[nodes][split])
        lines = merged_rows(split, text, leaf_format, model.leaf_class[nodes], model.counts[nodes])
        out.write("\n".join((heads[nodes] + lines).tolist()) + "\n")


def load(source: Iterable[str]) -> ForestModel:
    """Read a ``forest-model v1`` listing; anything else raises ModelFormatError.

    The header's tree count must match the body, and every tree must be a
    complete pre-order listing.
    """
    # streamed: holding the field lists of every line of a large forest
    # at once made loading it about three times slower
    rows = ((no, parts) for no, parts in enumerate(map(str.split, source), 1) if parts)
    no, parts = next(rows, (0, []))
    if " ".join(parts) != MODEL_FORMAT:
        raise ModelFormatError(f"not a {MODEL_FORMAT!r} file")
    header = [parts for _, parts in itertools.islice(rows, 3)]
    if [(p[0], len(p)) for p in header] != [("trees", 2), ("dim", 2), ("params", 5)]:
        raise ModelFormatError("the header needs a trees, a dim and a params line")
    try:
        n_trees, dim = int(header[0][1]), int(header[1][1])
        kv = dict(part.split("=", 1) for part in header[2][1:])
        params = ForestParams(n_trees=n_trees, rng_seed=int(kv["seed"]))
        rules = " ".join(f"{key}={kv[key]}" for key in FIXED)
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"bad header value ({exc})") from None
    if rules != _fixed_line():
        raise ModelFormatError(f"{rules}: trees here grow unpruned, with {_fixed_line()}")

    roots, feature, threshold, right, counts = [], [], [], [], []
    open_splits = None  # between trees; else the splits still owed a right child
    try:
        for no, parts in rows:
            if open_splits is None:
                if parts != ["tree", str(len(roots))] or len(roots) == n_trees:
                    raise ModelFormatError(f"line {no}: expected tree {len(roots)}")
                roots.append(len(feature))
                open_splits = []
                continue
            node = len(feature)
            if node > roots[-1] and feature[-1] < 0:
                # a leaf ended the left subtree, so this is a right child
                right[open_splits.pop()] = node
            right.append(-1)
            if parts[0] == "N" and len(parts) == 3:
                feature.append(int(parts[1]))
                if not 0 <= feature[-1] < dim:
                    raise ModelFormatError(f"line {no}: split feature out of range")
                threshold.append(float(parts[2]))
                if not np.isfinite(threshold[-1]):
                    raise ModelFormatError(f"line {no}: non-finite split threshold")
                counts.extend([0] * N_CLASSES)
                open_splits.append(node)
            elif parts[0] == "L" and len(parts) == 2 + N_CLASSES:
                leaf = [int(c) for c in parts[2:]]
                if not all(0 <= c <= _MAX_COUNT for c in leaf):
                    raise ModelFormatError(f"line {no}: leaf count out of range")
                if int(parts[1]) != leaf.index(max(leaf)):
                    raise ModelFormatError(f"line {no}: leaf class disagrees with its counts")
                feature.append(-1)
                threshold.append(0.0)
                counts.extend(leaf)
                if not open_splits:
                    open_splits = None
            else:
                raise ModelFormatError(f"line {no}: unexpected {' '.join(parts)!r}")
    except ValueError as exc:
        raise ModelFormatError(f"line {no}: bad value ({exc})") from None
    if open_splits is not None:
        raise ModelFormatError(f"tree {len(roots) - 1} is unfinished at the end of the file")
    if len(roots) != n_trees:
        raise ModelFormatError(f"the header lists {n_trees} trees, the file has {len(roots)}")
    return _arrays_model(params, dim, roots, feature, threshold, right, counts)
