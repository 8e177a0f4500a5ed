"""Evaluation metrics: confusion matrix, precision/recall, F-beta, ROC/AUC, latency.

Headline numbers are binary failure-vs-normal (classes 1..3 pooled as
positive), with F-beta at beta=3 so recall weighs roughly three times
more than precision; ``pooled`` is the one place that pools them, for
reports and grid search alike. Per-class and macro figures are
diagnostics. ``roc_curve`` and ``roc_auc`` share one tie-grouped sweep
over the scores (Fawcett, 2006): the curve is a ``(k+1, 3)`` array of
``(fpr, tpr, threshold)`` rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import FailcastError
from .tables import write_rows
from .trace_model import N_CLASSES

BETA = 3.0


class UndefinedAucError(FailcastError):
    """AUC needs at least one positive and one negative label."""


def confusion(predictions: Sequence[int], actuals: Sequence[int]) -> np.ndarray:
    """4x4 count matrix with rows = predicted class, columns = actual class."""
    p = np.asarray(predictions, dtype=np.int64)
    a = np.asarray(actuals, dtype=np.int64)
    if p.shape != a.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {a.shape}")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (p, a), 1)
    return cm


def precision_recall(
    cm: np.ndarray, cls: int
) -> tuple[Optional[float], Optional[float]]:
    """Per-class precision and recall; None when the denominator is zero."""
    predicted = cm[cls, :].sum()
    actual = cm[:, cls].sum()
    tp = cm[cls, cls]
    precision = float(tp / predicted) if predicted > 0 else None
    recall = float(tp / actual) if actual > 0 else None
    return precision, recall


def f_beta(precision: float, recall: float) -> float:
    """(1 + b^2) * P * R / (b^2 * P + R) at b = BETA; zero when both inputs are zero."""
    if precision == 0.0 and recall == 0.0:
        return 0.0
    b2 = BETA * BETA
    return (1.0 + b2) * precision * recall / (b2 * precision + recall)


def pooled(cm: np.ndarray) -> np.ndarray:
    """The 2x2 failure-vs-normal matrix of ``cm``: classes 1..3 pooled as class 1."""
    return np.add.reduceat(np.add.reduceat(cm, [0, 1], axis=0), [0, 1], axis=1)


def binary_f3(cm: np.ndarray) -> float:
    """F3 of failure-vs-normal; an undefined precision or recall counts as 0."""
    precision, recall = precision_recall(pooled(cm), 1)
    return f_beta(precision or 0.0, recall or 0.0)


def _roc_sweep(scores: Sequence[float], labels: Sequence[int]):
    """One sweep from the highest score down, a step per distinct score.

    Returns the cumulative true- and false-positive counts after each
    step, the step's score, and the positive and negative totals. Ties
    form one step: after a stable sort of -score, a step ends at the last
    index of each run of equal scores.
    """
    s = np.asarray(scores, dtype=float)
    pos = np.asarray(labels, dtype=np.int64) != 0
    if s.shape != pos.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError(
            f"need both classes, got {n_pos} positives / {n_neg} negatives"
        )
    order = np.argsort(-s, kind="stable")
    ranked = s[order]
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(pos[order])[last]
    fp = last + 1 - tp
    return tp, fp, ranked[np.append(0, last[:-1] + 1)], n_pos, n_neg


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a positive outranks a negative, ties counting half.

    Twice the favourable pairs is an exact integer count, so the result
    is that count divided by 2 * n_pos * n_neg, rounded once, and matches
    brute-force pair counting exactly.
    """
    tp, fp, _, n_pos, n_neg = _roc_sweep(scores, labels)
    step_pos, step_neg = np.diff(tp, prepend=0), np.diff(fp, prepend=0)
    # each positive beats the negatives below its step and ties those in it
    twice_favourable = int(step_pos @ (2 * (n_neg - fp) + step_neg))
    return twice_favourable / (2 * n_pos * n_neg)


def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> np.ndarray:
    """(k+1, 3) rows of (fpr, tpr, threshold): (0, 0, inf), then one row
    per distinct score, highest first."""
    tp, fp, thresholds, n_pos, n_neg = _roc_sweep(scores, labels)
    sweep = np.column_stack([fp / n_neg, tp / n_pos, thresholds])
    return np.vstack([[0.0, 0.0, np.inf], sweep])


@dataclass
class LatencyStats:
    mean_ms: float
    p99_ms: float
    n_calls: int


def measure_latency(
    predict: Callable, rows: Sequence, repetitions: int
) -> LatencyStats:
    """Wall-clock per prediction, cycling the rows; one warm-up pass excluded."""
    if not len(rows):
        raise ValueError("need at least one row")
    for x in rows[: min(len(rows), 50)]:
        predict(x)
    times = np.empty(repetitions)
    k = len(rows)
    for i in range(repetitions):
        x = rows[i % k]
        t0 = time.perf_counter()
        predict(x)
        times[i] = time.perf_counter() - t0
    return LatencyStats(
        mean_ms=float(times.mean() * 1e3),
        p99_ms=float(np.percentile(times, 99) * 1e3),
        n_calls=repetitions,
    )


@dataclass
class MetricsReport:
    confusion_matrix: np.ndarray
    precision: list[Optional[float]]
    recall: list[Optional[float]]
    binary_precision: Optional[float]
    binary_recall: Optional[float]
    binary_f3: float
    macro_f3_failures: Optional[float]
    auc: Optional[float]


def build_report(
    predictions: Sequence[int],
    actuals: Sequence[int],
    scores: Sequence[float],
) -> MetricsReport:
    cm = confusion(predictions, actuals)
    precision, recall = map(list, zip(*(precision_recall(cm, c) for c in range(N_CLASSES))))
    bp, br = precision_recall(pooled(cm), 1)

    # the failure classes present in the data; an undefined rate counts as 0
    per_class_f3 = [
        f_beta(precision[c] or 0.0, recall[c] or 0.0)
        for c in range(1, N_CLASSES) if cm[:, c].any()
    ]
    macro = float(np.mean(per_class_f3)) if per_class_f3 else None

    try:
        auc = roc_auc(scores, actuals)
    except UndefinedAucError:
        auc = None

    return MetricsReport(
        confusion_matrix=cm,
        precision=precision,
        recall=recall,
        binary_precision=bp,
        binary_recall=br,
        binary_f3=binary_f3(cm),
        macro_f3_failures=macro,
        auc=auc,
    )


_CLASS_NAMES = ["Normal", "IR", "SR", "FD"]


def _fmt(v: Optional[float]) -> str:
    return "undefined" if v is None else f"{v:.4f}"


def render_text(report: MetricsReport) -> str:
    """Human-readable report. Binary figures pool all failure classes."""
    lines = []
    lines.append("confusion matrix (rows=predicted, cols=actual)")
    lines.append("            " + "".join(f"{n:>10}" for n in _CLASS_NAMES))
    for i, name in enumerate(_CLASS_NAMES):
        row = "".join(f"{int(c):>10}" for c in report.confusion_matrix[i])
        lines.append(f"{name:>12}{row}")
    lines.append("")
    lines.append("per-class precision / recall")
    for i, name in enumerate(_CLASS_NAMES):
        lines.append(
            f"  {name:<8} precision={_fmt(report.precision[i])} recall={_fmt(report.recall[i])}"
        )
    lines.append("")
    lines.append("binary failure-vs-normal (classes 1..3 pooled as positive)")
    lines.append(f"  precision={_fmt(report.binary_precision)}")
    lines.append(f"  recall={_fmt(report.binary_recall)}")
    lines.append(f"  f3={report.binary_f3:.4f}")
    lines.append(f"  macro_f3_failure_classes={_fmt(report.macro_f3_failures)}")
    lines.append(
        f"  auc={_fmt(report.auc)} (composite two-stage score; local definition)"
    )
    return "\n".join(lines) + "\n"


def render_kv(report: MetricsReport) -> str:
    """Flat key=value form for machines."""
    kv: dict[str, str] = {}
    for i, name in enumerate(_CLASS_NAMES):
        kv[f"precision.{name.lower()}"] = _fmt(report.precision[i])
        kv[f"recall.{name.lower()}"] = _fmt(report.recall[i])
    for p in range(N_CLASSES):
        for a in range(N_CLASSES):
            kv[f"confusion.{p}.{a}"] = str(int(report.confusion_matrix[p, a]))
    kv["binary.precision"] = _fmt(report.binary_precision)
    kv["binary.recall"] = _fmt(report.binary_recall)
    kv["binary.f3"] = f"{report.binary_f3:.6f}"
    kv["binary.macro_f3_failures"] = _fmt(report.macro_f3_failures)
    kv["binary.auc"] = _fmt(report.auc)
    return "".join(f"{k}={kv[k]}\n" for k in sorted(kv))


def write_roc_csv(points: np.ndarray, out) -> None:
    """The rows of a ``roc_curve`` array, each value as its shortest repr."""
    out.write("fpr,tpr,threshold\n")
    write_rows(out, "%r,%r,%r\n", np.asarray(points, dtype=float))
