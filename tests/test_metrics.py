import io
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from failcast.metrics import (
    UndefinedAucError,
    binary_f3,
    build_report,
    confusion,
    f_beta,
    pooled,
    precision_recall,
    render_kv,
    render_text,
    roc_auc,
    roc_curve,
    write_roc_csv,
)

from oracles import (
    auc_pair_counting,
    f_beta_direct,
    measure_latency,
    reference_roc_auc_rank_sums,
    reference_roc_curve,
)


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        cm = confusion([0, 1, 2, 3, 1], [0, 1, 2, 3, 1])
        assert cm.diagonal().tolist() == [1, 2, 1, 1]
        assert cm.sum() == 5

    def test_missed_failure_lands_off_diagonal(self):
        cm = confusion([0], [1])
        assert cm[0, 1] == 1
        assert cm.sum() == 1

    def test_empty_input_gives_zero_matrix(self):
        assert confusion([], []).sum() == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0])


class TestPrecisionRecall:
    def test_diagonal_matrix_is_perfect(self):
        cm = confusion([0, 1, 2], [0, 1, 2])
        for cls in range(3):
            assert precision_recall(cm, cls) == (1.0, 1.0)

    def test_never_predicted_class_has_undefined_precision(self):
        cm = confusion([0, 0], [0, 1])
        p, r = precision_recall(cm, 1)
        assert p is None
        assert r == 0.0

    def test_absent_class_has_undefined_recall(self):
        cm = confusion([0, 1], [0, 0])
        p, r = precision_recall(cm, 1)
        assert p == 0.0
        assert r is None

    def test_arithmetic(self):
        cm = np.zeros((4, 4), dtype=np.int64)
        cm[1, 1] = 8
        cm[1, 0] = 2
        cm[0, 1] = 2
        p, r = precision_recall(cm, 1)
        assert p == pytest.approx(0.8)
        assert r == pytest.approx(0.8)


class TestFBeta:
    def test_ideal_value_is_one(self):
        assert f_beta(1.0, 1.0) == pytest.approx(1.0)

    @given(st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=0.01, max_value=1.0))
    def test_equal_precision_recall_collapses(self, p, r):
        assert f_beta(p, p) == pytest.approx(p, rel=1e-12)
        assert f_beta(p, r) == pytest.approx(f_beta_direct(p, r, 3), rel=1e-12)

    def test_reference_pair(self):
        # 0.729 precision / 0.795 recall at beta=3
        expected = f_beta_direct(0.729, 0.795, 3.0)
        assert expected == pytest.approx(0.7879, abs=1e-4)
        assert f_beta(0.729, 0.795) == pytest.approx(expected, rel=1e-12)

    def test_double_zero_defined_as_zero(self):
        assert f_beta(0.0, 0.0) == 0.0

    def test_invalid_beta_rejected(self):
        """F3 is the one F-beta the pipeline reports, so no beta is taken."""
        with pytest.raises(TypeError):
            f_beta(0.5, 0.5, 0.0)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_rank_sum_example(self):
        assert roc_auc([0.9, 0.4, 0.6, 0.7], [1, 0, 1, 0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedAucError):
            roc_auc([0.5, 0.6], [1, 1])

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            scores = np.round(rng.random(n), 2)  # rounded to force ties
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert roc_auc(scores, labels) == auc_pair_counting(scores, labels)
            assert roc_auc(scores, labels) == reference_roc_auc_rank_sums(scores, labels)

    @given(st.integers(0, 2**32 - 1))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        scores = rng.random(n)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        transformed = np.exp(3.0 * scores) + 5.0
        assert roc_auc(scores, labels) == pytest.approx(
            roc_auc(transformed, labels), abs=1e-12
        )

    def test_flipped_labels_complement_without_ties(self):
        rng = np.random.default_rng(5)
        scores = rng.permutation(30) / 30.0  # all distinct
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        a = roc_auc(scores, labels)
        b = roc_auc(scores, 1 - labels)
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestRocCurve:
    def test_sweep_ends_at_unit_corner(self):
        points = roc_curve([0.9, 0.1, 0.8, 0.3], [1, 0, 1, 0])
        assert points[0].tolist() == [0.0, 0.0, float("inf")]
        assert points[-1, :2].tolist() == [1.0, 1.0]

    def test_matches_tie_walk(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 80))
            scores = np.round(rng.random(n), int(rng.integers(0, 3)))  # many ties
            labels = rng.integers(0, 4, n)
            if np.count_nonzero(labels) in (0, n):
                labels[0] = 0 if labels[0] else 1
            points = roc_curve(scores, labels)
            assert points.shape[1] == 3
            assert np.array_equal(points, reference_roc_curve(scores, labels))

    def test_csv_export_shape(self):
        points = roc_curve([0.9, 0.1], [1, 0])
        buf = io.StringIO()
        write_roc_csv(points, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert len(lines) == len(points) + 1


class TestBinaryPooling:
    def test_pooled_counts_match_binarized_metrics(self):
        rng = np.random.default_rng(2)
        preds = rng.integers(0, 4, 500)
        actuals = rng.integers(0, 4, 500)
        cm = confusion(preds, actuals)
        (tn, fn), (fp, tp) = pooled(cm)
        bp = (preds != 0).astype(int)
        ba = (actuals != 0).astype(int)
        assert tp == int(np.sum((bp == 1) & (ba == 1)))
        assert fp == int(np.sum((bp == 1) & (ba == 0)))
        assert fn == int(np.sum((bp == 0) & (ba == 1)))
        assert tn == int(np.sum((bp == 0) & (ba == 0)))
        p, r = tp / (tp + fp), tp / (tp + fn)
        assert binary_f3(cm) == f_beta_direct(p, r, 3.0)

    def test_binary_f3_counts_an_undefined_rate_as_zero(self):
        assert binary_f3(confusion([0, 0], [0, 0])) == 0.0  # no positives at all
        assert binary_f3(confusion([0, 0], [0, 1])) == 0.0  # none predicted
        assert binary_f3(confusion([1, 0], [0, 0])) == 0.0  # none actual


class TestLatency:
    def test_single_repetition_is_single_call(self):
        calls = []
        stats = measure_latency(lambda x: calls.append(x), [1, 2, 3], repetitions=1)
        assert stats.n_calls == 1
        # warm-up calls happen too; the timed portion is exactly one call
        assert stats.mean_ms >= 0.0

    def test_mean_is_stable_under_more_repetitions(self):
        fn = lambda x: sum(range(200))
        a = measure_latency(fn, [0], repetitions=300)
        b = measure_latency(fn, [0], repetitions=600)
        assert a.mean_ms == pytest.approx(b.mean_ms, rel=2.0, abs=0.5)

    def test_empty_instances_rejected(self):
        with pytest.raises(ValueError):
            measure_latency(lambda x: x, [], 5)


class TestReport:
    def test_report_renders_both_forms(self):
        preds = [0, 1, 1, 2, 0, 3]
        actuals = [0, 1, 2, 2, 1, 3]
        scores = [0.1, 0.9, 0.8, 0.7, 0.2, 0.95]
        report = build_report(preds, actuals, scores)
        text = render_text(report)
        assert "confusion matrix" in text
        assert "binary failure-vs-normal" in text
        kv = render_kv(report)
        assert "binary.f3=" in kv
        assert "binary.auc=" in kv

    def test_undefined_cells_render_as_undefined(self):
        report = build_report([0, 0], [0, 1], [0.2, 0.6])
        assert report.precision[1] is None
        assert "undefined" in render_text(report)
