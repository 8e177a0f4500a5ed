"""Per-layer metrics from spans: calls, self time, work counts and ratios."""

from __future__ import annotations

import json
from collections import defaultdict

#: metrics reported for every workload, named <module>.<function>.<quantity>
LAYER_METRICS = {
    "ingestion.parse_usage_records": ("self_s", "rows"),
    "ingestion.aggregate_intervals": ("self_s",),
    "ingestion.parse_machine_events": ("self_s",),
    "store.save_interval_store": ("self_s",),
    "store.load_interval_store": ("self_s",),
    "labeling.pair_failures": ("self_s",),
    "labeling.build_label_tracks": ("self_s",),
    "features.pacf_by_machine": ("self_s", "pairs"),
    "features.build_dataset": ("self_s", "rows"),
    "features.write_dataset_csv": ("self_s", "rows"),
    "features.read_dataset_csv": ("self_s", "rows"),
    "ocsvm.train": ("calls", "self_s", "rows", "support_vectors"),
    "ocsvm.decision": ("calls", "self_s", "rows"),
    "forest.train": ("calls", "self_s"),
    "forest.grow_tree": ("calls", "self_s"),
    "forest.best_split": ("calls", "self_s"),
    "forest.predict_votes": ("calls", "self_s"),
    "forest.predict_votes_batch": ("rows", "self_s"),
    "pipeline.train": ("calls", "self_s"),
    "pipeline.grid_search_cv": ("calls", "self_s"),
    "pipeline.predict": ("calls", "self_s"),
    "pipeline.score": ("calls", "self_s"),
    "pipeline.predict_batch": ("calls", "self_s"),
    "pipeline.load_bundle": ("calls", "self_s"),
    "pipeline.save_bundle": ("calls", "self_s"),
    "metrics.build_report": ("self_s",),
    "metrics.roc_curve": ("self_s",),
    "synth.generate": ("self_s",),
}
RATIO_METRICS = (
    "pipeline.predict_batch.routed_ratio",
    "pipeline.grid_search_cv.ocsvm_fit_useful_ratio",
    "pipeline.grid_search_cv.tree_useful_ratio",
)


def load_spans(paths) -> tuple[list[list], set[str]]:
    """Spans of every file, and the names of the functions that were wrapped."""
    spans, wrapped = [], set()
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        spans.extend(doc["spans"])
        wrapped.update(doc["wrapped"])
    return spans, wrapped


def _covered(intervals) -> float:
    """Length of the union of [start, end] intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _work in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()))
        for sid, _parent, _name, start, end, _work in spans
    }


def aggregate(spans) -> dict[str, float]:
    """name.calls, name.self_s and name.<count> summed over the spans given."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, name, _start, _end, work in spans:
        out[name + ".calls"] += 1
        out[name + ".self_s"] += own[sid]
        for key, value in (work or {}).items():
            if isinstance(value, (int, float)):
                out[f"{name}.{key}"] += value
    return dict(out)


def ratios(spans) -> dict[str, float]:
    """Routed share of batch rows and useful-work shares of grid search.

    A fit is useful the first time its (gamma, nu, tol, training data) key
    appears; a forest's useful trees are the largest count grown per
    (forest settings, stage-2 data) key, since smaller forests on the same
    key are prefixes of it. A ratio with no base is None.
    """
    by_id = {s[0]: s for s in spans}

    def under(span, name):
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = by_id.get(parent[1])
        return False

    batch_rows = sum((s[5] or {}).get("rows", 0) for s in spans if s[2] == "pipeline.predict_batch")
    batch_ids = {s[0] for s in spans if s[2] == "pipeline.predict_batch"}
    routed = sum(
        (s[5] or {}).get("rows", 0)
        for s in spans
        if s[2] == "forest.predict_votes_batch" and s[1] in batch_ids
    )
    fits = [s[5]["fit_key"] for s in spans
            if s[2] == "ocsvm.train" and s[5] and under(s, "pipeline.grid_search_cv")]
    forests = [(s[5]["prefix_key"], s[5]["trees"]) for s in spans
               if s[2] == "forest.train" and s[5] and under(s, "pipeline.grid_search_cv")]
    largest: dict[str, int] = {}
    for key, trees in forests:
        largest[key] = max(largest.get(key, 0), trees)
    grown = sum(t for _, t in forests)
    return {
        "pipeline.predict_batch.routed_ratio": routed / batch_rows if batch_rows else None,
        "pipeline.grid_search_cv.ocsvm_fit_useful_ratio":
            len(set(fits)) / len(fits) if fits else None,
        "pipeline.grid_search_cv.tree_useful_ratio":
            sum(largest.values()) / grown if grown else None,
    }


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The LAYER_METRICS values from aggregate() output, 0 for layers not hit."""
    return {
        f"{layer}.{q}": float(totals.get(f"{layer}.{q}", 0.0))
        for layer, quantities in LAYER_METRICS.items()
        for q in quantities
    }


def missing_calls(spans, expected, wrapped) -> list[str]:
    """Expected calls that the program can make but the spans do not show.

    An entry is a layer function name, or ``callee<caller`` for a function
    that must be called directly from another one. Functions the program
    no longer has are skipped.
    """
    names = {s[0]: s[2] for s in spans}
    seen = {s[2] for s in spans} | {f"{s[2]}<{names.get(s[1])}" for s in spans}
    return [
        entry for entry in expected
        if all(part in wrapped for part in entry.split("<")) and entry not in seen
    ]
