"""Multi-label evaluation: average precision, per-class and pooled P/R/F1.

A slot is predicted positive when its probability reaches the confidence
threshold (default 0.5). Per-class precision with an empty prediction set is
defined as 0 so the per-class averages stay finite. Classes without any true
positive cannot be ranked and are skipped from mAP and the per-class
averages; they are reported in ``skipped_classes`` rather than silently
zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contrast import check_probs, check_scored_labels
from .linalg import DimensionError
from .seeding import check_real


@dataclass(frozen=True)
class MetricsReport:
    map: float
    cp: float
    cr: float
    cf1: float
    op: float
    or_: float
    of1: float
    per_class_ap: np.ndarray = field(repr=False)  # NaN where a class was skipped
    skipped_classes: tuple[int, ...] = ()

    def to_text(self) -> str:
        """One 'name value' pair per line, four decimal places."""
        pairs = [
            ("map", self.map),
            ("cp", self.cp),
            ("cr", self.cr),
            ("cf1", self.cf1),
            ("op", self.op),
            ("or", self.or_),
            ("of1", self.of1),
        ]
        return "\n".join(f"{name} {value:.4f}" for name, value in pairs) + "\n"


def average_precision(scores, truth) -> float:
    """Exact (all-point) average precision of one class.

    Samples are ranked by descending score, ties keeping their original
    order; AP is the mean over the positives of the precision at each
    positive's rank.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truth = np.asarray(truth).ravel()
    if scores.shape != truth.shape:
        raise DimensionError("scores and truth lengths differ")
    positive = truth == 1
    n_pos = int(positive.sum())
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    hits = np.cumsum(positive[order])
    ranks = np.flatnonzero(positive[order]) + 1
    return float((hits[ranks - 1] / ranks).sum() / n_pos)


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def check_threshold(threshold: float) -> None:
    """The confidence threshold must be in [0, 1]; NaN is rejected too."""
    check_real("threshold", threshold)
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")


def report(probs, truth, threshold: float = 0.5) -> MetricsReport:
    """Full metrics report for predicted probabilities against truth labels."""
    check_threshold(threshold)
    probs, actual = check_scored_labels(probs, truth, "probs", "truth")
    check_probs(probs)

    n_classes = actual.shape[1]
    pred = probs >= threshold

    per_class_ap = np.full(n_classes, np.nan)
    precisions, recalls = [], []
    skipped = []
    for k in range(n_classes):
        if not actual[:, k].any():
            skipped.append(k)
            continue
        per_class_ap[k] = average_precision(probs[:, k], actual[:, k])
        tp = float((pred[:, k] & actual[:, k]).sum())
        n_pred = float(pred[:, k].sum())
        precisions.append(tp / n_pred if n_pred > 0 else 0.0)
        recalls.append(tp / float(actual[:, k].sum()))

    if not precisions:
        raise ValueError("no class has a positive label; nothing to evaluate")
    cp = float(np.mean(precisions))
    cr = float(np.mean(recalls))

    tp = float((pred & actual).sum())
    n_pred = float(pred.sum())
    n_actual = float(actual.sum())
    op = tp / n_pred if n_pred > 0 else 0.0
    or_ = tp / n_actual if n_actual > 0 else 0.0

    evaluated = ~np.isnan(per_class_ap)
    return MetricsReport(
        map=float(per_class_ap[evaluated].mean()),
        cp=cp,
        cr=cr,
        cf1=_f1(cp, cr),
        op=op,
        or_=or_,
        of1=_f1(op, or_),
        per_class_ap=per_class_ap,
        skipped_classes=tuple(skipped),
    )
