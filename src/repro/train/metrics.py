"""Classification metrics: ROC, TPR@FPR (the HEP operating point), AUC.

The HEP science result (paper SVII-A) is quoted as the true-positive rate at
a *fixed, very low* false-positive rate of 0.02 % — the regime where the
background is 10x more prevalent than signal and analyses live or die on
background rejection.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.checks import require_real


def _validate(scores: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray,
                                                               np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError(
            f"scores {scores.shape} and labels {labels.shape} differ")
    if scores.size == 0:
        raise ValueError("need at least one sample")
    # a NaN sorts last, so a diverged net would read as a ROC; an infinite
    # score still sorts where it belongs
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    uniq = np.unique(labels)
    if not np.all(np.isin(uniq, [0, 1])):
        raise ValueError(f"labels must be 0/1, got values {uniq}")
    if not (labels == 1).any() or not (labels == 0).any():
        raise ValueError("need both classes present to compute a ROC")
    return scores, labels.astype(np.int64)


def roc_curve(scores: np.ndarray, labels: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
    """(fpr, tpr) at every score threshold, sorted by increasing FPR."""
    scores, labels = _validate(scores, labels)
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(1 - sorted_labels)
    n_pos = tp[-1]
    n_neg = fp[-1]
    # Collapse ties: keep the last point of each distinct score (compared,
    # not subtracted: two infinite scores tie too).
    s = scores[order]
    distinct = np.append(np.nonzero(s[1:] != s[:-1])[0], s.size - 1)
    tpr = tp[distinct] / n_pos
    fpr = fp[distinct] / n_neg
    # Prepend the (0, 0) point.
    return np.concatenate([[0.0], fpr]), np.concatenate([[0.0], tpr])


def tpr_at_fpr(scores: np.ndarray, labels: np.ndarray,
               fpr_target: float) -> float:
    """Highest TPR achievable with FPR <= target (conservative threshold)."""
    require_real("fpr_target", fpr_target, "[0, 1]")
    fpr, tpr = roc_curve(scores, labels)
    ok = fpr <= fpr_target
    return float(tpr[ok].max()) if ok.any() else 0.0


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve (trapezoidal)."""
    fpr, tpr = roc_curve(scores, labels)
    # Close the curve at (1, 1).
    fpr = np.concatenate([fpr, [1.0]])
    tpr = np.concatenate([tpr, [1.0]])
    return float(np.trapezoid(tpr, fpr))


def accuracy(scores: np.ndarray, labels: np.ndarray,
             threshold: float = 0.5) -> float:
    """Fraction correct at a score threshold."""
    scores = np.asarray(scores).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal shapes")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    pred = (scores >= require_real("threshold", threshold,
                                   "(-inf, inf)")).astype(np.int64)
    return float((pred == labels).mean())


def precision_recall_curve(scores: np.ndarray, labels: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Precision and recall at every score threshold (descending).

    Complements :func:`roc_curve` for the climate detection task, where
    positives (planted events) are rare and FPR hides the interesting
    regime.
    """
    scores, labels = _validate(scores, labels)
    order = np.argsort(-scores)
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("no positive labels")
    precision = tp / np.arange(1, labels.size + 1)
    recall = tp / n_pos
    return precision, recall


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the (interpolated) precision-recall curve."""
    precision, recall = precision_recall_curve(scores, labels)
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for p, r in zip(env, recall):
        ap += p * (r - prev_r)
        prev_r = r
    return float(ap)
