"""Binary-classifier evaluation: accuracy, ROC-AUC, and the KS statistic.

All three curve metrics read one threshold sweep: one sort of the scores,
read descending, with cumulative class counts at the end of each tie group.
Only those group ends are read, so the order inside a tie never matters and
the sort need not be stable. AUC uses the Mann-Whitney convention (ties get
half credit), which equals the trapezoidal area under that tie-grouped ROC
curve (Hanley & McNeil 1982); it is computed in integer counts, so it
matches the rank-sum formula bit for bit. KS is the maximum vertical gap
between the per-class score CDFs, equivalently max |TPR - FPR| over
thresholds; the maximum always occurs at a distinct score value, so only
those are swept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError, UndefinedMetricError
from .records import FiniteReal, checked, record
from .tensor_ops import as_f64


@record
class MetricsRecord:
    acc: float
    auc: float
    ks: float
    n_pos: int
    n_neg: int


@dataclass
class RocCurve:
    """Threshold-sweep ROC points, (0,0) first and (1,1) last, ties grouped."""

    fpr: np.ndarray
    tpr: np.ndarray

    def trapezoid_area(self) -> float:
        df = self.fpr[1:] - self.fpr[:-1]
        return float(np.sum(0.5 * df * (self.tpr[1:] + self.tpr[:-1])))

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.fpr.tolist(), self.tpr.tolist()))


def check_labels(labels: np.ndarray) -> None:
    """Raise ``DataError`` unless every label is 0 or 1."""
    if not np.all((labels == 0) | (labels == 1)):
        raise DataError(f"labels must be 0/1, got values {np.unique(labels)!r}")


def _validate(scores, labels):
    scores = as_f64(scores)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise ShapeError(
            f"scores and labels must be 1-D, got shapes {scores.shape} and {labels.shape}"
        )
    if scores.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"scores ({scores.shape[0]}) and labels ({labels.shape[0]}) differ in length"
        )
    if scores.shape[0] == 0:
        raise DataError("empty input")
    if not np.isfinite(scores).all():
        raise DataError("scores contain non-finite values")
    check_labels(labels)
    return scores, labels.astype(np.int64)


def _accuracy(scores: np.ndarray, labels: np.ndarray, threshold: float) -> float:
    return float(np.mean((scores >= threshold) == labels))


@checked
def accuracy(scores, labels, threshold: FiniteReal = 0.5) -> float:
    """Fraction of samples where (score >= threshold) matches the label."""
    return _accuracy(*_validate(scores, labels), threshold)


def _sweep(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (negative, positive) counts at the end of each tie group,
    thresholds descending: one sort serves AUC, KS and the ROC curve.

    The ascending order is read in reverse. Counts are taken only where a tie
    group ends, and a group's count does not depend on how its members are
    ordered, so numpy's default (unstable, SIMD) argsort gives the same
    counts as a stable one."""
    order = np.argsort(scores)[::-1]
    sorted_scores = scores[order]
    last = np.empty(scores.shape[0], dtype=bool)
    last[-1] = True
    last[:-1] = sorted_scores[1:] != sorted_scores[:-1]
    tp = np.cumsum(labels[order])[last]
    fp = np.flatnonzero(last) + 1 - tp
    if tp[-1] == 0 or fp[-1] == 0:
        raise UndefinedMetricError(
            f"metric undefined with n_pos={tp[-1]}, n_neg={fp[-1]}"
        )
    return fp, tp


def _auc(fp: np.ndarray, tp: np.ndarray) -> float:
    # Trapezoid area in integer counts: each group's negatives times the
    # summed true positives before and after it, over 2 * n_pos * n_neg.
    # One correctly rounded division, so it equals the rank-sum value exactly.
    neg = np.diff(fp, prepend=0)
    tp_before = np.append(0, tp[:-1])
    return int(np.sum(neg * (tp_before + tp))) / (2 * int(tp[-1]) * int(fp[-1]))


def _ks(fp: np.ndarray, tp: np.ndarray) -> float:
    return float(np.max(np.abs(tp / tp[-1] - fp / fp[-1])))


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative (ties half-credited)."""
    return _auc(*_sweep(*_validate(scores, labels)))


def ks(scores, labels) -> float:
    """Max over thresholds of |TPR - FPR| (Kolmogorov-Smirnov separation)."""
    return _ks(*_sweep(*_validate(scores, labels)))


def roc_points(scores, labels) -> RocCurve:
    """ROC curve with one point per distinct threshold, plus the (0,0) origin."""
    fp, tp = _sweep(*_validate(scores, labels))
    return RocCurve(fpr=np.append(0.0, fp / fp[-1]), tpr=np.append(0.0, tp / tp[-1]))


@checked
def evaluate_scores(scores, labels, threshold: FiniteReal = 0.5) -> MetricsRecord:
    """Compute the full metric triple on one split: one validation, one sort."""
    scores, labels = _validate(scores, labels)
    fp, tp = _sweep(scores, labels)
    return MetricsRecord(
        acc=_accuracy(scores, labels, threshold),
        auc=_auc(fp, tp),
        ks=_ks(fp, tp),
        n_pos=int(tp[-1]),
        n_neg=int(fp[-1]),
    )
