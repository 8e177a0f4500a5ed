import pytest

import layers


def span(sid, parent, name, start, end, work=None):
    return [sid, parent, name, start, end, work]


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, 0, "pipeline.train", 0.0, 10.0),
        span(2, 1, "ocsvm.train", 1.0, 4.0),
        span(3, 1, "forest.train", 5.0, 9.0),
        span(4, 3, "forest.grow_tree", 5.5, 8.5),
        span(5, 4, "forest.best_split", 6.0, 7.0),
    ]
    own = layers.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0 - 3.0)
    assert own[4] == pytest.approx(3.0 - 1.0)
    assert own[5] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # children on two threads overlap; their union is [1, 6]
    spans = [
        span(1, 0, "pipeline.grid_search_cv", 0.0, 8.0),
        span(2, 1, "pipeline.train", 1.0, 5.0),
        span(3, 1, "pipeline.train", 2.0, 6.0),
    ]
    assert layers.self_times(spans)[1] == pytest.approx(8.0 - 5.0)


def test_aggregate_sums_calls_self_time_and_counts():
    spans = [
        span(1, 0, "features.read_dataset_csv", 0.0, 1.0, {"rows": 10}),
        span(2, 0, "features.read_dataset_csv", 2.0, 2.5, {"rows": 5}),
    ]
    totals = layers.aggregate(spans)
    assert totals["features.read_dataset_csv.calls"] == 2
    assert totals["features.read_dataset_csv.self_s"] == pytest.approx(1.5)
    assert totals["features.read_dataset_csv.rows"] == 15
    metrics = layers.layer_metrics(totals)
    assert metrics["features.read_dataset_csv.rows"] == 15
    assert metrics["ocsvm.train.calls"] == 0.0


def test_useful_ratios_count_repeated_fits_and_tree_prefixes():
    spans = [span(1, 0, "pipeline.grid_search_cv", 0.0, 100.0)]
    sid = 2
    for nu in ("0.05", "0.1"):
        for fold in range(3):
            for trees in (25, 50, 100):
                cell = sid
                spans.append(span(cell, 1, "pipeline.train", 0.0, 1.0))
                spans.append(span(sid + 1, cell, "ocsvm.train", 0.0, 0.1,
                                  {"fit_key": f"{nu}|{fold}", "rows": 1}))
                spans.append(span(sid + 2, cell, "forest.train", 0.2, 0.9,
                                  {"prefix_key": f"{nu}|{fold}", "trees": trees}))
                sid += 3
    # the refit on the full set sits outside grid search and does not count
    spans.append(span(sid, 0, "ocsvm.train", 0.0, 1.0, {"fit_key": "0.05|all", "rows": 1}))
    r = layers.ratios(spans)
    assert r["pipeline.grid_search_cv.ocsvm_fit_useful_ratio"] == pytest.approx(6 / 18)
    assert r["pipeline.grid_search_cv.tree_useful_ratio"] == pytest.approx(600 / 1050)
    assert r["pipeline.predict_batch.routed_ratio"] is None


def test_routed_ratio_counts_forest_rows_under_batch_calls():
    spans = [
        span(1, 0, "pipeline.predict_batch", 0.0, 1.0, {"rows": 200}),
        span(2, 1, "forest.predict_votes_batch", 0.5, 0.9, {"rows": 12}),
        span(3, 0, "forest.predict_votes_batch", 2.0, 3.0, {"rows": 50}),
    ]
    assert layers.ratios(spans)["pipeline.predict_batch.routed_ratio"] == pytest.approx(0.06)


def test_missing_calls_checks_names_and_caller_edges():
    spans = [
        span(1, 0, "pipeline.train", 0.0, 1.0),
        span(2, 0, "features.to_arrays", 0.0, 1.0),
    ]
    wrapped = {"pipeline.train", "features.to_arrays", "ocsvm.train"}
    expected = ["pipeline.train", "ocsvm.train", "features.to_arrays<pipeline.train",
                "features.gone"]
    assert layers.missing_calls(spans, expected, wrapped) == [
        "ocsvm.train", "features.to_arrays<pipeline.train"]
    spans.append(span(3, 1, "features.to_arrays", 0.2, 0.3))
    assert layers.missing_calls(spans, expected, wrapped) == ["ocsvm.train"]
