"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 8 needs a real cluster trace and reports SKIPPED unless
FAILCAST_GOOGLE_TRACE points at a directory holding machine_events.csv
and task_usage.csv in the public clusterdata-2011 layout.
"""

import os
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from failcast import features, ingestion, labeling, metrics, pipeline
from failcast import forest as forest_mod
from failcast import ocsvm as ocsvm_mod
from failcast import synth
from failcast.features import DatasetConfig
from failcast.forest import ForestParams
from failcast.ocsvm import OcsvmModel, OcsvmParams
from failcast.pipeline import CascadeModel
from failcast.synth import SynthConfig

from oracles import (
    BUNDLE_FILES,
    auc_pair_counting,
    brute_force_best_split,
    classify,
    dual_objective,
    f_beta_direct,
    forest_predict_batch,
    measure_latency,
    ols_last_coefficient,
    one_tree,
    qp_reference_objective,
    rbf_matrix,
    split_of,
)
from test_cli import run_chain


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _ar1(rng, n, phi, scale):
    x = np.empty(n)
    x[0] = rng.standard_normal() * scale
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.standard_normal() * scale
    return x


def test_criterion_1_pacf_oracle_equivalence():
    """100 random series, lags <= 10: recursion matches the OLS oracle to 1e-8."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(40, 5001))
        phi = float(rng.uniform(-0.85, 0.85))
        x = _ar1(rng, n, phi, scale=float(rng.uniform(0.5, 2.0)))
        max_lag = int(rng.integers(1, 11))
        got = features.pacf(x, max_lag)
        for k in range(1, max_lag + 1):
            worst = max(worst, abs(got[k - 1] - ols_last_coefficient(x, k)))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-8 and elapsed < 10.0,
        f"max |pacf - ols| = {worst:.2e} over 100 series in {elapsed:.1f}s "
        f"(bounds: 1e-8, 10s)",
    )


def test_criterion_2_ocsvm_oracle_and_nu_property():
    """Dual objective vs projected-gradient QP oracle; nu bounds at n=500."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()

    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        X = rng.random((n, int(rng.integers(2, 6))))
        nu = float(rng.uniform(0.15, 0.95))
        if nu * n < 1.0:
            nu = 1.5 / n
        gamma = float(rng.uniform(0.1, 2.0))
        with mock.patch.object(ocsvm_mod, "TOL", 1e-7):
            model = ocsvm_mod.train(X, OcsvmParams(nu=nu, gamma=gamma))
        K = rbf_matrix(X, gamma)
        cap = 1.0 / (nu * n)
        alpha = np.zeros(n)
        pool = {}
        for sv, a in zip(model.support_vectors, model.alphas):
            pool.setdefault(tuple(sv), []).append(a)
        for i, row in enumerate(X):
            vals = pool.get(tuple(row))
            if vals:
                alpha[i] = vals.pop()
        got = dual_objective(K, alpha)
        ref = qp_reference_objective(K, cap)
        worst_rel = max(worst_rel, abs(got - ref) / max(abs(ref), 1e-12))

    nu = 0.1
    outlier_ok = sv_ok = True
    for seed in range(20):
        X = np.random.default_rng(seed).standard_normal((500, 6))
        model = ocsvm_mod.train(X, OcsvmParams(nu=nu, gamma=0.25))
        outlier_fraction = float(np.mean(ocsvm_mod.decision(model, X) < 0))
        sv_fraction = model.n_support / 500
        outlier_ok &= outlier_fraction <= nu + 0.03
        sv_ok &= sv_fraction >= nu - 0.03

    elapsed = time.perf_counter() - t0
    _report(
        2,
        worst_rel <= 1e-6 and outlier_ok and sv_ok and elapsed < 60.0,
        f"dual objective max rel err = {worst_rel:.2e} over 50 instances; "
        f"nu bounds held on 20 seeds at n=500; {elapsed:.1f}s (bounds: 1e-6, 60s)",
    )


def test_criterion_3_forest_correctness():
    """best_split == exhaustive enumeration; separable data fits; votes conserve."""
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()

    splits_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        X = np.round(rng.random((n, d)), 2)
        y = rng.integers(0, 4, n)
        got = split_of(X, y, range(d))
        want = brute_force_best_split(X, y, range(d))
        if want is None:
            splits_ok &= got is None
        else:
            splits_ok &= got is not None and abs(got[2] - want[2]) <= 1e-12

    X = rng.random((400, 8))
    y = (X[:, 2] > 0.5).astype(int) + 2 * (X[:, 5] > 0.4).astype(int)
    tree_params = ForestParams(n_trees=1, rng_seed=1)  # each node draws all 8 features
    single = one_tree(X, y, tree_params, np.random.default_rng(1))
    zero_error = bool(np.array_equal(forest_predict_batch(single, X), y))

    with mock.patch.dict(forest_mod.FIXED, mtry=3):
        model = forest_mod.train(X, y, ForestParams(n_trees=17, rng_seed=2))
    votes = forest_mod.predict_votes_batch(model, rng.random((1000, 8)))
    votes_ok = bool(np.all(votes.sum(axis=1) == 17))

    elapsed = time.perf_counter() - t0
    _report(
        3,
        splits_ok and zero_error and votes_ok and elapsed < 30.0,
        f"200 split enumerations exact; separable training error 0; "
        f"votes conserved on 1000 queries; {elapsed:.1f}s (bound: 30s)",
    )


def test_criterion_4_metric_arithmetic():
    """F-beta reference pair to 1e-4; AUC equals brute-force pair counting exactly."""
    expected = f_beta_direct(0.729, 0.795, 3.0)
    got = metrics.f_beta(0.729, 0.795)
    f_ok = abs(got - 0.7879) <= 1e-4 and abs(got - expected) < 1e-12

    rng = np.random.default_rng(404)
    auc_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 80))
        scores = np.round(rng.random(n), int(rng.integers(1, 4)))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        auc_ok &= metrics.roc_auc(scores, labels) == auc_pair_counting(scores, labels)

    _report(
        4,
        f_ok and auc_ok,
        f"f_beta(0.729, 0.795, 3) = {got:.6f} (target 0.7879 +/- 1e-4); "
        f"AUC == pair counting on 100 random score sets",
    )


def _run_pipeline(signature: float, tmp: Path):
    cfg = SynthConfig(signature_strength=signature, rng_seed=7)
    paths = synth.generate(cfg, tmp)
    with open(paths.events) as f:
        events = ingestion.parse_machine_events(f)
    with open(paths.usage) as f:
        table, _ = ingestion.parse_usage_records(f)
    series = ingestion.aggregate_intervals(table, cfg.horizon_us)
    failures, _ = labeling.pair_failures(events)
    excluded = labeling.detect_degenerate_machines(series, failures)
    kept_failures = failures[~np.isin(failures["machine_id"], excluded)]
    tracks = labeling.build_label_tracks(kept_failures, series)
    tracks = tracks.select(~np.isin(tracks.machine_ids, excluded))
    train_set, test_set = features.build_dataset(
        series, tracks, DatasetConfig(rng_seed=3)
    )
    model = pipeline.train(
        train_set.x,
        train_set.y,
        OcsvmParams(nu=0.05, gamma=0.125),
        ForestParams(n_trees=100, rng_seed=11),
    )
    X_test, y_test = test_set.x, test_set.y
    preds, scores = pipeline.predict_batch(model, X_test)
    fail_mask = y_test != 0
    stage1 = classify(model.ocsvm, X_test[fail_mask])
    stage1_recall = float(np.mean(stage1 == 1))
    report = metrics.build_report(preds, y_test, scores)
    return report, stage1_recall, int(fail_mask.sum())


def test_criterion_5_end_to_end_synthetic_targets(tmp_path):
    """Default 500-machine, 7-day trace: learnable at 0.9, chance at 0.0."""
    t0 = time.perf_counter()
    report, stage1_recall, n_fail = _run_pipeline(0.9, tmp_path / "strong")
    null_report, _, _ = _run_pipeline(0.0, tmp_path / "null")
    elapsed = time.perf_counter() - t0

    ok = (
        report.auc is not None
        and report.auc >= 0.90
        and report.binary_f3 >= 0.80
        and stage1_recall >= 0.98
        and abs(null_report.auc - 0.5) <= 0.05
        and elapsed < 15 * 60
    )
    _report(
        5,
        ok,
        f"signal run: auc={report.auc:.4f} (>=0.90), f3={report.binary_f3:.4f} "
        f"(>=0.80), stage-1 recall={stage1_recall:.4f} (>=0.98) over {n_fail} "
        f"held-out failures; null run: auc={null_report.auc:.4f} (0.5 +/- 0.05); "
        f"{elapsed:.0f}s (bound: 900s)",
    )


def test_criterion_6_prediction_latency():
    """Amortized single-row predict_batch < 9 ms with 5000 SVs and 100 trees."""
    rng = np.random.default_rng(606)
    svs = rng.random((5000, 72))
    alphas = rng.random(5000)
    alphas /= alphas.sum()
    stage1 = OcsvmModel(
        support_vectors=svs, alphas=alphas, rho=0.9, gamma=1.0 / 72.0
    )
    X = rng.random((4000, 72))
    y = rng.integers(0, 4, 4000)
    stage2 = forest_mod.train(X, y, ForestParams(n_trees=100, rng_seed=1))
    model = CascadeModel(ocsvm=stage1, forest=stage2, manifest={})
    queries = rng.random((256, 72))
    stats = measure_latency(
        lambda x: pipeline.predict_batch(model, x[None, :]), queries, repetitions=10_000
    )
    _report(
        6,
        stats.mean_ms < 9.0,
        f"mean latency {stats.mean_ms:.3f} ms, p99 {stats.p99_ms:.3f} ms over "
        f"10000 calls with 5000 SVs and 100 trees (bound: 9 ms)",
    )


def test_criterion_7_cli_chain_determinism(tmp_path):
    """The whole CLI chain, run twice with one seed, emits identical bytes."""
    a = run_chain(tmp_path / "a", seed=23)
    b = run_chain(tmp_path / "b", seed=23)
    artifacts = [
        "trace/machine_events.csv",
        "trace/resource_usage.csv",
        "trace/truth_labels.csv",
        "store/avg.npy",
        "store/peak.npy",
        "store/present.npy",
        "store/meta.json",
        "labels/y.npy",
        "labels/failures.csv",
        "pacf_hist.csv",
        "data/train.csv",
        "data/test.csv",
        "data/layout.json",
        "model/cv_table.csv",
        "model/split_counts.csv",
        "model/bundle.zip",
        "predictions.csv",
        "reports/report.txt",
        "reports/report.kv",
        "reports/roc.csv",
    ] + [f"model/{name}" for name in BUNDLE_FILES]
    mismatched = [
        rel
        for rel in artifacts
        if (a / rel).read_bytes() != (b / rel).read_bytes()
    ]
    _report(
        7,
        not mismatched,
        f"{len(artifacts)} artifacts byte-identical across reruns"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )


def test_criterion_8_real_trace_structural_checks(tmp_path):
    """Optional: class counts, degenerate machines, and lag structure on the real trace."""
    trace_dir = os.environ.get("FAILCAST_GOOGLE_TRACE")
    if not trace_dir:
        print(
            "ACCEPTANCE 8: SKIPPED - set FAILCAST_GOOGLE_TRACE to a directory "
            "with machine_events.csv and task_usage.csv (clusterdata-2011 layout)"
        )
        pytest.skip("real trace not provided")

    from failcast.cli import main

    src = Path(trace_dir)
    native = tmp_path / "native"
    assert main([
        "adapt-google", "--machine-events", str(src / "machine_events.csv"),
        "--task-usage", str(src / "task_usage.csv"), "--out", str(native),
    ]) == 0
    with open(native / "machine_events.csv") as f:
        events = ingestion.parse_machine_events(f)
    with open(native / "resource_usage.csv") as f:
        table, _ = ingestion.parse_usage_records(f)
    horizon = max(int(table["end_us"].max()), int(events["time_us"].max()) + 1)
    horizon = -(-horizon // 300_000_000) * 300_000_000
    series = ingestion.aggregate_intervals(table, horizon)
    failures, _ = labeling.pair_failures(events)
    excluded = labeling.detect_degenerate_machines(series, failures)
    kept = failures[~np.isin(failures["machine_id"], excluded)]
    counts = np.bincount(kept["type"], minlength=4)[1:]
    expected = np.array([5894, 2783, 94])
    counts_ok = np.all(np.abs(counts - expected) <= 0.01 * expected)

    table = features.pacf_by_machine(series.select(~np.isin(series.machine_ids, excluded)))
    counts = features.significant_lag_counts(table)
    total = int(counts.sum())
    within = int(counts[:6].sum())
    lag_ok = total > 0 and within / total >= 0.8

    _report(
        8,
        bool(counts_ok and excluded and lag_ok),
        f"class counts {counts.tolist()} vs {expected.tolist()} (+/-1%); "
        f"{len(excluded)} degenerate machines flagged; "
        f"{within}/{total} significant lags within 1..6",
    )
