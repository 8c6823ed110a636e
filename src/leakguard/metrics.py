"""Confusion-matrix scores and ROC analysis for binary classifiers.

All scores treat class 1 as the positive class. Zero-denominator cases
return 0 rather than NaN so reports stay numerically comparable; every
such event is flagged in the report that carries the score.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

CONVENTION = "positive-class metrics (not macro-averaged)"


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """All scores for one (labels, scores, threshold) evaluation.

    precision/recall/f1 are positive-class scores, not macro averages;
    zero_division_flags lists the metrics that hit a 0/0 convention.
    """

    accuracy: float
    precision: float
    recall: float
    f1: float
    mcc: float
    auc: float
    threshold: float
    confusion: ConfusionMatrix
    positive_count: int
    negative_count: int
    zero_division_flags: tuple[str, ...] = ()

    def __post_init__(self):
        eps = 1e-9
        for name in ("accuracy", "precision", "recall", "f1", "auc"):
            value = getattr(self, name)
            if not -eps <= value <= 1 + eps:
                raise ValueError(f"{name} {value!r} outside [0, 1]")
        if not -1 - eps <= self.mcc <= 1 + eps:
            raise ValueError(f"mcc {self.mcc!r} outside [-1, 1]")

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "zero_division_flags": list(self.zero_division_flags),
            "convention": CONVENTION,
        }


def _as_binary(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64)


def confusion(labels, predictions) -> ConfusionMatrix:
    """Count tp/fp/tn/fn with class 1 positive."""
    y = _as_binary(labels, "labels")
    p = _as_binary(predictions, "predictions")
    if y.shape != p.shape:
        raise ValueError(f"length mismatch: {y.size} labels, {p.size} predictions")
    tp = int(((y == 1) & (p == 1)).sum())
    fp = int(((y == 0) & (p == 1)).sum())
    tn = int(((y == 0) & (p == 0)).sum())
    fn = int(((y == 1) & (p == 0)).sum())
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def precision(cm: ConfusionMatrix) -> float:
    return cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0


def recall(cm: ConfusionMatrix) -> float:
    return cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0


def f1(cm: ConfusionMatrix) -> float:
    p, r = precision(cm), recall(cm)
    return 2 * p * r / (p + r) if p + r else 0.0


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return (cm.tp + cm.tn) / cm.total


def mcc(cm: ConfusionMatrix) -> float:
    """Matthews correlation; 0 when any denominator factor is 0.

    The four factors are multiplied pairwise under square roots to delay
    overflow at large counts.
    """
    f1_, f2, f3, f4 = (
        cm.tp + cm.fp,
        cm.tp + cm.fn,
        cm.tn + cm.fp,
        cm.tn + cm.fn,
    )
    if 0 in (f1_, f2, f3, f4):
        return 0.0
    numerator = cm.tp * cm.tn - cm.fp * cm.fn
    return numerator / (math.sqrt(f1_ * f2) * math.sqrt(f3 * f4))


def _check_scored_input(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    y = _as_binary(labels, "labels")
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise ValueError(f"length mismatch: {y.size} labels, {s.size} scores")
    if np.isnan(s).any():
        raise ValueError("scores contain NaN")
    n_pos = int((y == 1).sum())
    if n_pos == 0 or n_pos == y.size:
        raise ValueError("ROC analysis needs both classes present")
    return y, s


def _tie_bounds(sorted_values: np.ndarray) -> np.ndarray:
    """Boundaries of the blocks of equal values in a sorted array: block k
    spans [bounds[k], bounds[k + 1]), and the last bound is the length."""
    starts = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    return np.concatenate(([0], starts, [sorted_values.size]))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties given the mean rank of their block."""
    order = np.argsort(values, kind="stable")
    bounds = _tie_bounds(values[order])
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0, np.diff(bounds))
    return ranks


def auc(labels, scores) -> float:
    """Rank-based ROC AUC (the Mann-Whitney statistic, ties ranked mid)."""
    y, s = _check_scored_input(labels, scores)
    ranks = _average_ranks(s)
    n_pos = int((y == 1).sum())
    n_neg = y.size - n_pos
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_report(labels, scores, threshold: float) -> MetricsReport:
    """Score one evaluation: predictions are score >= threshold."""
    y, s = _check_scored_input(labels, scores)
    predictions = (s >= threshold).astype(np.int64)
    cm = confusion(y, predictions)
    flags = []
    if cm.tp + cm.fp == 0:
        flags.append("precision")
    if cm.tp + cm.fn == 0:
        flags.append("recall")
    p, r = precision(cm), recall(cm)
    if p + r == 0:
        flags.append("f1")
    if 0 in (cm.tp + cm.fp, cm.tp + cm.fn, cm.tn + cm.fp, cm.tn + cm.fn):
        flags.append("mcc")
    return MetricsReport(
        accuracy=accuracy(cm),
        precision=p,
        recall=r,
        f1=f1(cm),
        mcc=mcc(cm),
        auc=auc(y, s),
        threshold=threshold,
        confusion=cm,
        positive_count=cm.tp + cm.fn,
        negative_count=cm.tn + cm.fp,
        zero_division_flags=tuple(flags),
    )
