"""Independent reference implementations the unit tests check against.

Each oracle takes the slow, obvious route: explicit least squares for
partial autocorrelations, accelerated projected gradient for the
one-class dual, one product over the whole batch for one-class
decisions, exhaustive enumeration and a feature-by-feature loop for
tree splits, node-by-node growth on every bootstrap copy for forest
training, an f-string per node for forest files, a row-by-row,
tree-by-tree walk for forest votes, record-by-record and bin-by-bin
accumulation for interval aggregation and for the clusterdata
adapter, an event-by-event walk for failure pairing, a
failure-by-failure walk for label tracks, value-by-value packing of
one feature window, a class-by-class list split for the
train/test split, a machine-by-machine loop for the PACF table and its
histogram, ``np.savetxt`` for the synthetic usage table, one ``%`` per
row for table writing, literal pair counting and rank sums for AUC, a
tie-by-tie walk for the ROC curve, one cascade fit per grid cell and
fold for grid search, bound masks kept beside alpha for the SMO loop,
and a class-by-class round robin for the CV folds. None of them share
code with the package paths they verify; the PACF table loop calls the
package's own ``pacf``, which the OLS oracle checks, the grid search
oracle calls the package's own fold split and cascade, and the masked
SMO loop calls the package's own kernel and rho estimate.
``classify``, the anomaly flag of the package's own decisions,
``forest_predict_batch``, the majority vote over the package's own
votes, ``split_of`` and ``one_tree``, the package's split search and tree
growth on rows counted once each, and ``feature_index``, the inverse of
``features.describe``, and ``BUNDLE_FILES``, the files of a bundle
directory, are not oracles: they live here because only tests use them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from failcast.errors import (
    ConvergenceError, DegenerateTrainingError, InfeasibleNuError, ParseError,
)
from failcast.features import (
    KIND_AVG, KIND_PEAK, MIN_PACF_RUN, PACF_MAX_LAG, SIGNIFICANCE_Z, pacf,
)
from failcast.forest import MODEL_FORMAT as FOREST_FORMAT
from failcast.forest import _arrays_model, best_split, grow_tree, predict_votes_batch
from failcast.ingestion import MACHINE_EVENTS_HEADER, USAGE_HEADER
from failcast.labeling import FAILURES_HEADER, LabelTracks
from failcast.metrics import binary_f3, confusion
from failcast.ocsvm import MAX_ITER, OcsvmModel, OcsvmParams, _estimate_rho, _rbf, decision
from failcast.pipeline import (
    BUNDLE_FOREST, BUNDLE_LAYOUT, BUNDLE_MANIFEST, BUNDLE_OCSVM, _stratified_folds, predict_batch,
)
from failcast.pipeline import train as cascade_train
from failcast.trace_model import (
    FAILURE_DTYPE,
    INTERVAL_US,
    LAGS,
    MICROS_PER_MINUTE,
    N_FEATURES,
    N_RESOURCES,
    FailureType,
    MachineEventKind,
)

#: the files ``pipeline.save_bundle`` writes into a bundle directory
BUNDLE_FILES = (BUNDLE_OCSVM, BUNDLE_FOREST, BUNDLE_LAYOUT, BUNDLE_MANIFEST)


def ols_last_coefficient(x: np.ndarray, k: int) -> float:
    """Last coefficient of the order-k autoregression with intercept, via lstsq."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    y = x[k:]
    cols = [np.ones(n - k)]
    cols.extend(x[k - j : n - j] for j in range(1, k + 1))
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[-1])


def project_capped_simplex(v: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= cap, sum a = 1} by bisection."""
    lo = v.min() - cap - 1.0
    hi = v.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        total = np.clip(v - mid, 0.0, cap).sum()
        if total > 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, cap)


def qp_reference_objective(K: np.ndarray, cap: float, max_iter: int = 200_000) -> float:
    """min 0.5 a'Ka over the capped simplex via FISTA with adaptive restart."""
    n = len(K)
    step = 1.0 / max(np.linalg.eigvalsh(K).max(), 1e-12)
    a = project_capped_simplex(np.full(n, 1.0 / n), cap)
    z = a.copy()
    t = 1.0
    prev_obj = np.inf
    stall = 0
    for _ in range(max_iter):
        grad = K @ z
        a_next = project_capped_simplex(z - step * grad, cap)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_next
        if np.dot(z - a_next, a_next - a) > 0.0:  # restart on non-descent
            t_next, momentum = 1.0, 0.0
        z = a_next + momentum * (a_next - a)
        a = a_next
        t = t_next
        obj = 0.5 * float(a @ K @ a)
        if abs(prev_obj - obj) < 1e-15:
            stall += 1
            if stall > 50:
                break
        else:
            stall = 0
        prev_obj = obj
    return 0.5 * float(a @ K @ a)


def reference_masked_smo(normals: np.ndarray, params: OcsvmParams) -> OcsvmModel:
    """``ocsvm.train``'s SMO loop with ``at_lb``/``at_ub`` bound masks kept beside
    alpha and updated at every step, rather than read from alpha."""
    X = np.ascontiguousarray(normals, dtype=float)
    n = len(X)
    if params.nu * n < 1.0:
        raise InfeasibleNuError(f"nu*n < 1 with n={n}")
    C = 1.0 / (params.nu * n)
    alpha = np.zeros(n)
    k = int(params.nu * n)
    alpha[:k] = C
    if k < n:
        alpha[k] = 1.0 - k * C
    sq = np.einsum("ij,ij->i", X, X)
    grad = np.zeros(n)
    nonzero = np.nonzero(alpha)[0]
    for lo in range(0, len(nonzero), 512):
        idx = nonzero[lo : lo + 512]
        grad += alpha[idx] @ _rbf(X[idx], sq[idx], X, sq, params.gamma)
    at_lb = alpha <= 0.0
    at_ub = alpha >= C
    violation = np.inf
    for _ in range(MAX_ITER):
        gi = np.where(~at_ub, grad, np.inf)
        gj = np.where(~at_lb, grad, -np.inf)
        i, j = int(np.argmin(gi)), int(np.argmax(gj))
        violation = gj[j] - gi[i]
        if violation <= params.tol:
            break
        if np.isnan(violation):
            raise ConvergenceError("KKT violation is NaN", kkt_violation=float(violation))
        row_i = _rbf(X[i : i + 1], sq[i : i + 1], X, sq, params.gamma)[0]
        row_j = _rbf(X[j : j + 1], sq[j : j + 1], X, sq, params.gamma)[0]
        eta = 2.0 - 2.0 * row_i[j]
        limit = min(C - alpha[i], alpha[j])
        delta = min((grad[j] - grad[i]) / eta, limit) if eta > 1e-12 else limit
        if delta <= 0.0:
            break
        new_i, new_j = alpha[i] + delta, alpha[j] - delta
        if new_i >= C:
            new_i = C
        if new_j <= 0.0:
            new_j = 0.0
        delta = new_i - alpha[i]
        alpha[i], alpha[j] = new_i, new_j
        at_ub[i] = new_i >= C
        at_lb[i] = False
        at_lb[j] = new_j <= 0.0
        at_ub[j] = False
        grad += delta * (row_i - row_j)
    if violation > params.tol:
        raise ConvergenceError("no convergence", kkt_violation=float(violation))
    sv = alpha > 0.0
    return OcsvmModel(X[sv].copy(), alpha[sv].copy(), _estimate_rho(grad, alpha, C), params.gamma)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> float:
    """exp(-gamma * ||a - b||^2), in (0, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.exp(-gamma * np.dot(d, d)))


def reference_rbf(A, a_sq, B, b_sq, gamma: float) -> np.ndarray:
    """``ocsvm._rbf`` as one expression, each temporary its own array."""
    d2 = a_sq[:, None] + b_sq[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    with np.errstate(over="ignore"):
        return np.exp(-gamma * d2)


def rbf_matrix(X: np.ndarray, gamma: float) -> np.ndarray:
    sq = np.einsum("ij,ij->i", X, X)
    return reference_rbf(X, sq, X, sq, gamma)


def training_alphas(model, X: np.ndarray) -> np.ndarray:
    """The trained duals laid out over the training rows, zero off the support.

    Support vectors are exact copies of training rows; each dual goes back
    to one matching row, and duplicate rows consume entries in order.
    """
    pool: dict[tuple, list[float]] = {}
    for sv, a in zip(model.support_vectors, model.alphas):
        pool.setdefault(tuple(sv), []).append(float(a))
    alpha = np.zeros(len(X))
    for i, row in enumerate(X):
        stack = pool.get(tuple(row))
        if stack:
            alpha[i] = stack.pop()
    return alpha


def dual_objective(K: np.ndarray, alpha: np.ndarray) -> float:
    return 0.5 * float(alpha @ K @ alpha)


def kkt_max_violation(
    K: np.ndarray, alpha: np.ndarray, rho: float, cap: float
) -> float:
    """Exhaustive stationarity check of the one-class dual at (alpha, rho)."""
    grad = K @ alpha
    worst = 0.0
    for i in range(len(alpha)):
        if alpha[i] <= 1e-12:
            worst = max(worst, rho - grad[i])
        elif alpha[i] >= cap - 1e-12:
            worst = max(worst, grad[i] - rho)
        else:
            worst = max(worst, abs(grad[i] - rho))
    return worst


def gini(counts) -> float:
    """Gini impurity 1 - sum_c p_c^2 of a class-count vector."""
    total = float(sum(counts))
    if total <= 0:
        raise ValueError("gini of an empty count vector is undefined")
    return 1.0 - sum((c / total) ** 2 for c in counts)


def gini_impurity(labels) -> float:
    labels = list(labels)
    return gini([labels.count(c) for c in set(labels)])


def brute_force_best_split(X, y, features, min_leaf=1):
    """Enumerate every (feature, midpoint) pair; ties keep the first in
    (feature asc, threshold asc) order. Returns (feature, threshold, decrease)
    or None."""
    n = len(y)
    parent = gini_impurity(y)
    best = None
    for f in sorted(features):
        values = sorted(set(float(v) for v in X[:, f]))
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2.0
            left = [y[i] for i in range(n) if X[i, f] <= thr]
            right = [y[i] for i in range(n) if X[i, f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            weighted = (
                len(left) * gini_impurity(left) + len(right) * gini_impurity(right)
            ) / n
            decrease = parent - weighted
            if decrease > 0.0 and (best is None or decrease > best[2] + 1e-15):
                best = (f, thr, decrease)
    return best


def reference_best_split(X, y, candidate_features, min_leaf=1):
    """(feature, threshold, decrease) of the best Gini split, or None, one
    candidate feature at a time.

    Each feature is sorted and scored on its own, with the same Gini
    arithmetic as the package, and a later feature replaces the best only
    when it strictly improves it, so ties keep the lowest feature, then
    the lowest threshold. Results must match the package bit for bit.
    """
    n = len(y)
    if n < 2:
        return None
    parent_counts = np.bincount(y, minlength=4).astype(float)
    parent_gini = 1.0 - np.sum((parent_counts / n) ** 2)
    best = None
    for f in sorted(set(candidate_features)):
        order = np.argsort(X[:, f], kind="stable")
        xv = X[order, f]
        onehot = np.zeros((n, 4))
        onehot[np.arange(n), y[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        cut = np.nonzero(xv[:-1] < xv[1:])[0]  # split after position i
        n_left = (cut + 1).astype(float)
        n_right = n - n_left
        keep = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not np.any(keep):
            continue
        cut, n_left, n_right = cut[keep], n_left[keep], n_right[keep]
        left_counts = cum[cut]
        right_counts = parent_counts[None, :] - left_counts
        gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        decrease = parent_gini - (n_left * gini_left + n_right * gini_right) / n
        k = int(np.argmax(decrease))
        if decrease[k] > 0.0 and (best is None or decrease[k] > best[2]):
            i = cut[k]
            threshold = (xv[i] + xv[i + 1]) / 2.0
            if not xv[i] <= threshold < xv[i + 1]:
                threshold = xv[i]
            best = (f, float(threshold), float(decrease[k]))
    return best


def reference_grow_tree(X, y, params, rng) -> tuple[list, list, list, list]:
    """One tree's pre-order (feature, threshold, right, counts) node lists.

    Grows on every row of X, copies included, one node at a time: each
    node counts its classes, draws its candidates and takes the
    feature-by-feature split, and its rows go left where
    ``x[feature] <= threshold``.
    """
    d = X.shape[1]
    mtry = min(params.mtry, d)
    feature, threshold, right, counts = [], [], [], []
    stack = [(np.arange(len(y)), 0, -1)]
    while stack:
        idx, depth, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        node_counts = np.bincount(y[idx], minlength=4)
        split = None
        if (
            np.count_nonzero(node_counts) > 1
            and (params.max_depth is None or depth < params.max_depth)
            and len(idx) >= 2 * params.min_leaf
        ):
            feats = rng.choice(d, size=mtry, replace=False)
            split = reference_best_split(X[idx], y[idx], feats, params.min_leaf)
        right.append(-1)
        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            counts.append(node_counts)
            continue
        feature.append(split[0])
        threshold.append(split[1])
        counts.append(np.zeros(4, dtype=np.int64))
        goes_left = X[idx, split[0]] <= split[1]
        stack.append((idx[~goes_left], depth + 1, node))
        stack.append((idx[goes_left], depth + 1, -1))
    return feature, threshold, right, counts


def reference_forest(X, y, params):
    """The forest of ``params.n_trees`` trees, tree k grown by ``reference_grow_tree``
    on the n draws with replacement of its own rng, seeded by (seed, k)."""
    roots, nodes = [], ([], [], [], [])
    for k in range(params.n_trees):
        rng = np.random.default_rng([params.rng_seed, k])
        idx = rng.integers(0, len(y), size=len(y))
        tree = reference_grow_tree(X[idx], y[idx], params, rng)
        roots.append(len(nodes[0]))
        nodes[0].extend(tree[0])
        nodes[1].extend(tree[1])
        nodes[2].extend(r + roots[-1] if r >= 0 else -1 for r in tree[2])
        nodes[3].extend(tree[3])
    return _arrays_model(params, X.shape[1], roots, *nodes)


def reference_forest_save(model) -> str:
    """The ``forest-model v1`` text ``forest.save`` writes, one f-string per node."""
    p = model.params
    depth = "none" if p.max_depth is None else str(p.max_depth)
    lines = [
        f"{FOREST_FORMAT}\n",
        f"trees {model.n_trees}\n",
        f"dim {model.dim}\n",
        f"params mtry={p.mtry} min_leaf={p.min_leaf} max_depth={depth} seed={p.rng_seed}\n",
    ]
    feature = model.feature.tolist()
    threshold = model.threshold.tolist()
    klass = model.leaf_class.tolist()
    counts = model.counts.tolist()
    bounds = model.roots.tolist() + [len(feature)]
    for k in range(model.n_trees):
        lines.append(f"tree {k}\n")
        for i in range(bounds[k], bounds[k + 1]):
            if feature[i] < 0:
                lines.append(f"L {klass[i]} {' '.join(map(str, counts[i]))}\n")
            else:
                lines.append(f"N {feature[i]} {threshold[i]!r}\n")
    return "".join(lines)


def _unit_weights(y) -> np.ndarray:
    """The (classes + 1, n) weights ``forest.best_split`` takes, every row counted once."""
    weights = np.zeros((5, len(y)))
    weights[y, np.arange(len(y))] = 1.0
    weights[-1] = 1.0
    return weights


def split_of(X, y, features):
    """``forest.best_split`` of all rows of X, each counted once, among
    ``features`` in any order: (feature, threshold, decrease) or None."""
    weights = _unit_weights(y)
    rows = np.arange(len(y))
    split = best_split(X, weights, rows, np.unique(features), weights.sum(axis=1))
    return None if split is None else split[:3]


def one_tree(X, y, params, rng):
    """The one-tree forest ``forest.grow_tree`` grows on all rows of X, each counted once."""
    nodes = grow_tree(X, y, np.ones(len(y), dtype=np.int64), params, rng)
    return _arrays_model(replace(params, n_trees=1), X.shape[1], [0], *nodes)


def reference_decision(model, X) -> np.ndarray:
    """One-class decisions of the whole (m, d) batch in one product, unblocked."""
    sv = model.support_vectors
    sv_sq = np.einsum("ij,ij->i", sv, sv)
    x_sq = np.einsum("ij,ij->i", X, X)
    d2 = x_sq[:, None] + sv_sq[None, :] - 2.0 * (X @ sv.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-model.gamma * d2) @ model.alphas - model.rho


def classify(model, x) -> np.ndarray:
    """1 per row that is an anomaly (decision < 0), else 0. Boundary counts as normal."""
    return (decision(model, x) < 0.0).astype(np.int64)


def reference_votes(model, X) -> np.ndarray:
    """(n, 4) votes from walking each row down each tree, one node at a time.

    Follows the flat arrays' child links from every root (a left child
    is the next node) and takes a leaf's class from its own counts.
    """
    votes = np.zeros((len(X), 4), dtype=np.int64)
    for i, x in enumerate(X):
        for root in model.roots:
            node = int(root)
            while model.feature[node] >= 0:
                if x[model.feature[node]] <= model.threshold[node]:
                    node += 1
                else:
                    node = int(model.right[node])
            votes[i, int(np.argmax(model.counts[node]))] += 1
    return votes


def reference_aggregate(table, horizon_us: int, interval_us: int) -> dict:
    """Per-machine (avg, peak, present) arrays, accumulated one record at a time.

    Records are sorted as Python tuples (machine, start, end, mean, peak);
    per machine, single-bin records are added first, then each record that
    spans bins is added to each bin it touches in turn.
    """
    records = sorted(
        (
            int(row["machine_id"]),
            int(row["start_us"]),
            int(row["end_us"]),
            tuple(float(v) for v in row["values"][:6]),
            tuple(float(v) for v in row["values"][6:]),
        )
        for row in table
    )
    n_bins = -(-horizon_us // interval_us)
    by_machine: dict[int, list] = {}
    for rec in records:
        by_machine.setdefault(rec[0], []).append(rec)
    out = {}
    for machine_id, recs in by_machine.items():
        acc = np.zeros((n_bins, 6))
        wsum = np.zeros(n_bins)
        peak = np.zeros((n_bins, 6))
        starts = np.array([r[1] for r in recs], dtype=np.int64)
        ends = np.array([r[2] for r in recs], dtype=np.int64)
        means = np.array([r[3] for r in recs])
        peaks = np.array([r[4] for r in recs])
        first_bin = starts // interval_us
        last_bin = (ends - 1) // interval_us
        single = first_bin == last_bin
        if np.any(single):
            b = first_bin[single]
            w = (ends[single] - starts[single]).astype(float)
            np.add.at(wsum, b, w)
            np.add.at(acc, b, w[:, None] * means[single])
            np.maximum.at(peak, b, peaks[single])
        for k in np.nonzero(~single)[0]:
            for b in range(first_bin[k], last_bin[k] + 1):
                lo = max(starts[k], b * interval_us)
                hi = min(ends[k], (b + 1) * interval_us)
                w = float(hi - lo)
                wsum[b] += w
                acc[b] += w * means[k]
                peak[b] = np.maximum(peak[b], peaks[k])
        present = wsum > 0
        avg = np.zeros_like(acc)
        np.divide(acc, wsum[:, None], out=avg, where=present[:, None])
        np.minimum(avg, peak, out=avg)
        out[machine_id] = (avg, peak, present)
    return out


# (mean column, max column) of each native resource in a clusterdata task_usage row
_TASK_USAGE_COLUMNS = [(5, 13), (11, 14), (12, 12), (6, 10), (9, 9), (16, 16)]
_MAX_TASK_USAGE_COLUMN = max(max(c) for c in _TASK_USAGE_COLUMNS)


def _blank_as_zero(field: str) -> float:
    return float(field) if field else 0.0


def reference_convert_machine_events(source, out, stats) -> None:
    """The clusterdata machine-events adapter as a line-by-line loop."""
    out.write(MACHINE_EVENTS_HEADER + "\n")
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 3:
            raise ParseError(line_no, f"expected >= 3 columns, got {len(parts)}")
        if not parts[0] or not parts[1] or not parts[2]:
            stats.events_skipped += 1
            continue
        try:
            time_us, machine_id, code = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParseError(line_no, f"non-integer field: {exc}") from None
        if code not in (0, 1, 2):
            stats.events_skipped += 1
            continue
        out.write(f"{time_us},{machine_id},{code}\n")
        stats.events_converted += 1


def reference_convert_task_usage(source, out, stats, interval_us: int = INTERVAL_US) -> None:
    """The clusterdata task-usage adapter as a line-by-line, bin-by-bin loop.

    Each (machine, bin) cell accumulates its rows in a dict entry, in
    file order; cells are written sorted by (machine, bin).
    """
    acc_mean: dict[tuple[int, int], np.ndarray] = {}
    acc_peak: dict[tuple[int, int], np.ndarray] = {}
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) <= _MAX_TASK_USAGE_COLUMN:
            raise ParseError(
                line_no, f"expected > {_MAX_TASK_USAGE_COLUMN} columns, got {len(parts)}"
            )
        try:
            start = int(parts[0])
            end = int(parts[1])
            machine_id = int(parts[4])
            mean = np.array([_blank_as_zero(parts[c]) for c, _ in _TASK_USAGE_COLUMNS])
            peak = np.array([_blank_as_zero(parts[c]) for _, c in _TASK_USAGE_COLUMNS])
        except ValueError as exc:
            raise ParseError(line_no, f"non-numeric field: {exc}") from None
        if start >= end:
            continue
        stats.usage_rows_read += 1
        np.maximum(peak, mean, out=peak)
        for b in range(start // interval_us, (end - 1) // interval_us + 1):
            lo = max(start, b * interval_us)
            hi = min(end, (b + 1) * interval_us)
            frac = (hi - lo) / interval_us
            key = (machine_id, b)
            if key not in acc_mean:
                acc_mean[key] = np.zeros(N_RESOURCES)
                acc_peak[key] = np.zeros(N_RESOURCES)
            acc_mean[key] += frac * mean
            acc_peak[key] += peak

    out.write(USAGE_HEADER + "\n")
    for machine_id, b in sorted(acc_mean):
        mean = acc_mean[(machine_id, b)]
        peak = acc_peak[(machine_id, b)]
        over = int(np.sum(mean > 1.0) + np.sum(peak > 1.0))
        stats.values_clamped += over
        mean = np.clip(mean, 0.0, 1.0)
        peak = np.clip(peak, 0.0, 1.0)
        np.maximum(peak, mean, out=peak)
        body = ",".join(f"{v:.6f}" for v in np.concatenate([mean, peak]))
        out.write(f"{b * interval_us},{(b + 1) * interval_us},{machine_id},{body}\n")
        stats.usage_bins_written += 1


def build_instance(series, tracks, row: int, tau: int):
    """(y, x) of the window of machine row ``row`` that ends at tau-1.

    None when tau has fewer than LAGS preceding intervals or one of them is
    absent or downtime. Values are packed one at a time by the layout:
    averages then peaks, each resource-major with lags 1..LAGS.
    """
    L = LAGS
    if tau < L or tau >= series.present.shape[1]:
        return None
    window = slice(tau - L, tau)
    if not series.present[row, window].all() or tracks.downtime[row, window].any():
        return None
    x = np.empty(N_FEATURES)
    half = N_RESOURCES * L
    for lag in range(1, L + 1):
        t = tau - lag
        for r in range(N_RESOURCES):
            x[r * L + (lag - 1)] = series.avg[row, t, r]
            x[half + r * L + (lag - 1)] = series.peak[row, t, r]
    return FailureType(int(tracks.y[row, tau])), x


def reference_fold_of(y: np.ndarray, k: int, rng) -> np.ndarray:
    """(n,) CV fold of each row: each class present, in class order, deals its
    rows out round robin in the order of one ``rng.permutation`` of them."""
    fold_of = np.empty(len(y), dtype=np.int64)
    for cls in FailureType:
        idx = np.nonzero(y == cls)[0]
        if len(idx):
            idx = idx[rng.permutation(len(idx))]
            fold_of[idx] = np.arange(len(idx)) % k
    return fold_of


def reference_stratified_split(rows, train_fraction: float, rng):
    """Split ``rows`` of (y, machine_id, interval, x) per class, list by list.

    Each non-empty class, in FailureType order, filters its members from
    ``rows`` in order and draws one ``rng.permutation`` of them; the first
    round(train_fraction * n) positions go to train, the rest to test.
    Both splits come back sorted by (machine_id, interval).
    """
    train, test = [], []
    for cls in FailureType:
        members = [row for row in rows if row[0] == cls]
        if not members:
            continue
        order = rng.permutation(len(members))
        n_train = int(round(train_fraction * len(members)))
        for pos, idx in enumerate(order):
            (train if pos < n_train else test).append(members[idx])
    key = lambda row: (row[1], row[2])
    return sorted(train, key=key), sorted(test, key=key)


def read_failures_csv(source) -> np.ndarray:
    """The failures a ``failures.csv`` export lists, split field by field."""
    failures = []
    for i, raw in enumerate(source):
        line = raw.strip()
        if not line or i == 0:
            if i == 0 and line != FAILURES_HEADER:
                raise ValueError("unexpected failures header")
            continue
        machine_id, remove_us, add_us, _dur, ftype = line.split(",")
        failures.append((int(machine_id), int(remove_us), int(add_us or -1), int(ftype)))
    return np.array(failures, dtype=FAILURE_DTYPE)


def reference_pair_failures(events) -> tuple[np.ndarray, int]:
    """Pairing by a walk over the sorted events with one open REMOVE per machine."""
    failures = []
    dropped = 0
    open_remove = None
    current_machine = None

    def close(machine_id, add_us):
        duration = None if add_us is None else add_us - open_remove
        if duration is None:
            ftype = FailureType.FORCIBLE_DECOMMISSION
        elif duration < 30 * MICROS_PER_MINUTE:  # the paper's IR/SR boundary
            ftype = FailureType.IMMEDIATE_REBOOT
        else:
            ftype = FailureType.SLOW_REBOOT
        failures.append((machine_id, open_remove, -1 if add_us is None else add_us, ftype))

    for time_us, machine_id, kind in events.tolist():
        if machine_id != current_machine:
            if open_remove is not None:
                close(current_machine, None)
            open_remove = None
            current_machine = machine_id
        if kind == MachineEventKind.UPDATE:
            continue
        if kind == MachineEventKind.REMOVE:
            if open_remove is None:
                open_remove = time_us
            else:
                dropped += 1
        elif open_remove is not None:  # ADD
            close(machine_id, time_us)
            open_remove = None
    if open_remove is not None:
        close(current_machine, None)
    return np.array(failures, dtype=FAILURE_DTYPE), dropped


def reference_label_tracks(failures, series, interval_us: int) -> LabelTracks:
    """Label tracks by a walk over the failures, each in (machine, remove) order."""
    y = np.zeros(series.present.shape, dtype=np.int8)
    downtime = np.zeros(series.present.shape, dtype=bool)
    n = y.shape[1]
    row_of = {m: i for i, m in enumerate(series.machine_ids.tolist())}
    for machine_id, remove_us, add_us, ftype in sorted(
        failures.tolist(), key=lambda f: (f[0], f[1])
    ):
        i = row_of.get(machine_id)
        t_remove = remove_us // interval_us
        if i is None or t_remove >= n:
            continue
        y[i, t_remove] = ftype
        if add_us < 0:
            downtime[i, t_remove + 1 :] = True
        else:
            # flag bins whose whole span fits inside the downtime window
            for t in range(t_remove + 1, n):
                if (t + 1) * interval_us <= add_us:
                    downtime[i, t] = True
    return LabelTracks(series.machine_ids, y, downtime)


def forest_predict_batch(model, X) -> np.ndarray:
    """Majority-vote forest class per row; ties break toward the lowest label."""
    return np.argmax(predict_votes_batch(model, X), axis=1)


def auc_pair_counting(scores, labels) -> float:
    """Literal Mann-Whitney: count every positive-negative pair."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    greater = sum(1 for p in pos for q in neg if p > q)
    equal = sum(1 for p in pos for q in neg if p == q)
    return (greater + 0.5 * equal) / (len(pos) * len(neg))


def f_beta_direct(p: float, r: float, beta: float) -> float:
    return (1 + beta**2) * p * r / (beta**2 * p + r)


def feature_index(kind: str, resource: int, lag: int) -> int:
    """Flat index of (kind, resource, lag) in the feature layout."""
    if kind not in (KIND_AVG, KIND_PEAK):
        raise ValueError(f"kind must be '{KIND_AVG}' or '{KIND_PEAK}'")
    if not 0 <= resource < N_RESOURCES:
        raise ValueError(f"resource index {resource} out of range")
    if not 1 <= lag <= LAGS:
        raise ValueError(f"lag {lag} out of range 1..{LAGS}")
    half = 0 if kind == KIND_AVG else 1
    return half * N_RESOURCES * LAGS + resource * LAGS + (lag - 1)


def reference_longest_present_run(present) -> tuple[int, int]:
    """(start, length) of the first longest run of True, by a walk over the mask."""
    best_start = best_len = 0
    start = None
    for t, p in enumerate(present):
        if p and start is None:
            start = t
        elif not p and start is not None:
            if t - start > best_len:
                best_start, best_len = start, t - start
            start = None
    if start is not None and len(present) - start > best_len:
        best_start, best_len = start, len(present) - start
    return best_start, best_len


def reference_pacf_by_machine(series) -> list:
    """(machine_id, resource, n_effective, pacf) per pair, machine by machine."""
    results = []
    for machine_id, avg, present in zip(series.machine_ids.tolist(), series.avg, series.present):
        start, length = reference_longest_present_run(present)
        if length < MIN_PACF_RUN:
            continue
        window = avg[start : start + length]
        for r in range(N_RESOURCES):
            col = window[:, r]
            if np.ptp(col) == 0.0:
                continue
            results.append((machine_id, r, length, pacf(col, PACF_MAX_LAG)))
    return results


def reference_significant_lag_histogram(results) -> dict[int, int]:
    """{lag: pairs} over the lags whose |pacf| exceeds 1.96/sqrt(n_effective)."""
    hist: dict[int, int] = {}
    for _, _, n_effective, values in results:
        band = SIGNIFICANCE_Z / np.sqrt(n_effective)
        for k, v in enumerate(values):
            if abs(v) > band:
                hist[k + 1] = hist.get(k + 1, 0) + 1
    return hist


def reference_roc_curve(scores, labels) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) points by a walk over the scores, one tie group at a time."""
    s = np.asarray(scores, dtype=float)
    lab = (np.asarray(labels, dtype=np.int64) != 0).astype(np.int64)
    n_pos = int(lab.sum())
    n_neg = len(lab) - n_pos
    order = np.argsort(-s, kind="stable")
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    i = 0
    while i < len(s):
        thr = s[order[i]]
        while i < len(s) and s[order[i]] == thr:
            if lab[order[i]]:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / n_neg, tp / n_pos, float(thr)))
    return points


def reference_roc_auc_rank_sums(scores, labels) -> float:
    """Mann-Whitney AUC from average ranks, ties found by a walk over the sorted scores."""
    s = np.asarray(scores, dtype=float)
    pos = np.asarray(labels, dtype=np.int64) != 0
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    order = np.argsort(s, kind="stable")
    sorted_scores = s[order]
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[i : j + 1] = (i + j) / 2.0 + 1.0  # average 1-based rank
        i = j + 1
    favorable = ranks[pos[order]].sum() - n_pos * (n_pos + 1) / 2.0
    return favorable / (n_pos * n_neg)


def reference_write_usage(path, avg, peak, down, T: int) -> None:
    """resource_usage.csv through ``np.savetxt``, one block per machine.

    The regular machines' rows come from ``avg`` and ``peak``; the machines
    of ``down`` past them are the degenerate ones, written as zeros after
    all regular machines.
    """
    starts = np.arange(T, dtype=float) * INTERVAL_US
    fmt = ["%d", "%d", "%d"] + ["%.6f"] * (2 * N_RESOURCES)
    with open(path, "w", newline="\n") as f:
        f.write(USAGE_HEADER + "\n")
        for m in range(len(avg)):
            up = ~down[m]
            block = np.column_stack(
                [starts[up], starts[up] + INTERVAL_US, np.full(int(up.sum()), float(m)),
                 avg[m, up], peak[m, up]]
            )
            np.savetxt(f, block, fmt=fmt, delimiter=",", newline="\n")
        for m in range(len(avg), len(down)):
            up = ~down[m]
            n_up = int(up.sum())
            block = np.column_stack(
                [starts[up], starts[up] + INTERVAL_US, np.full(n_up, float(m)),
                 np.zeros((n_up, 2 * N_RESOURCES))]
            )
            np.savetxt(f, block, fmt=fmt, delimiter=",", newline="\n")


def reference_write_rows(row_format: str, *columns) -> str:
    """The text ``tables.write_rows`` writes, one ``row_format % row`` per row.

    A row is the Python scalars of row i of each column in turn.
    """
    lines = []
    for i in range(len(columns[0])):
        row = []
        for column in columns:
            value = np.asarray(column)[i].tolist()
            row.extend(value if isinstance(value, list) else [value])
        lines.append(row_format % tuple(row))
    return "".join(lines)


def reference_grid_search_cv(X, y, grid, base_ocsvm, base_forest):
    """``grid_search_cv`` cell by cell: one cascade fit per (gamma, nu, B, fold).

    Every tree count grows its own forest, so nothing relies on the
    prefix invariant. The folds come from the package's own split, which
    both paths share by contract.
    """
    folds = _stratified_folds(y, grid.folds, np.random.default_rng(base_forest.rng_seed))
    table = []
    for gamma, nu, n_trees in grid.cells():
        fold_f3 = []
        for test_idx in folds:
            train_idx = np.setdiff1d(np.arange(len(y)), test_idx)
            try:
                model = cascade_train(
                    X[train_idx],
                    y[train_idx],
                    replace(base_ocsvm, nu=nu, gamma=gamma),
                    replace(base_forest, n_trees=n_trees),
                )
            except (DegenerateTrainingError, InfeasibleNuError):
                fold_f3.append(0.0)
                continue
            preds, _ = predict_batch(model, X[test_idx])
            fold_f3.append(binary_f3(confusion(preds, y[test_idx])))
        table.append(fold_f3)
    means = [float(np.mean(f)) for f in table]
    cells = grid.cells()
    best = min(
        range(len(cells)), key=lambda c: (-means[c], cells[c][2], -cells[c][1], cells[c][0])
    )
    shape = (len(grid.gammas), len(grid.nus), len(grid.tree_counts), grid.folds)
    return cells[best], np.array(table).reshape(shape)
