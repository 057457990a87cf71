"""Checks on the program's outputs that do not come from the program.

Each check returns a list of failure messages; an empty list means it passed.
The algorithms here differ from the package's own: average precision is
counted from sorted scores with binary search instead of a cumulative sum
over a ranking, and nuclear norms come from the eigenvalues of Gram matrices
instead of an SVD.
"""

from __future__ import annotations

import math

import numpy as np

# Average precision and mAP agree with the package to this absolute margin.
MAP_TOL = 1e-12
# The contrastive loss is a sum of nuclear norms; eigvalsh of a Gram matrix
# gives each singular value to about sqrt(eps) of the largest one.
LOSS_RTOL = 1e-6
# Rounding allowance under zero for a loss that is nonnegative in theory.
NONNEG_TOL = 1e-9


def average_precision(scores, positive) -> float:
    """All-point AP of one class; ties rank in their original order.

    The rank of a positive is one plus the number of items scored strictly
    higher plus the number of earlier items with the same score. The first
    count comes from binary search in the sorted scores, the second from the
    item's slot within its group of equal scores.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positive = np.asarray(positive, dtype=bool).ravel()
    n = scores.size
    where = np.flatnonzero(positive)
    if where.size == 0:
        raise ValueError("average precision needs a positive")
    pos_scores = scores[where]
    higher_all = n - np.searchsorted(np.sort(scores), pos_scores, "right")
    higher_pos = where.size - np.searchsorted(np.sort(pos_scores), pos_scores, "right")

    _, group = np.unique(scores, return_inverse=True)
    order = np.lexsort((np.arange(n), group))  # by equal-score group, then index
    group_sorted = group[order]
    first = np.searchsorted(group_sorted, group_sorted, "left")
    slot = np.arange(n)
    cum_pos = np.concatenate(([0], np.cumsum(positive[order])))
    earlier_all = np.empty(n, dtype=np.int64)
    earlier_pos = np.empty(n, dtype=np.int64)
    earlier_all[order] = slot - first
    earlier_pos[order] = cum_pos[slot] - cum_pos[first]

    rank = higher_all + earlier_all[where] + 1
    hits = higher_pos + earlier_pos[where] + 1
    return float(np.mean(hits / rank))


def mean_average_precision(probs, truth) -> float:
    """mAP over the classes that have a positive in ``truth`` ({-1, +1})."""
    probs = np.asarray(probs, dtype=np.float64)
    actual = np.asarray(truth) == 1
    aps = [
        average_precision(probs[:, k], actual[:, k])
        for k in range(actual.shape[1])
        if actual[:, k].any()
    ]
    return float(np.mean(aps))


def nuclear_norm(a) -> float:
    """Sum of singular values, from the eigenvalues of the smaller Gram matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return 0.0
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    eig = np.linalg.eigvalsh(gram)
    return float(np.sqrt(np.clip(eig, 0.0, None)).sum())


def contrastive_loss(z, labels) -> float:
    """Sum over classes of the positive rows' nuclear norm, minus the batch's."""
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    total = sum(
        nuclear_norm(z[labels[:, k] == 1]) for k in range(labels.shape[1])
    )
    return total - nuclear_norm(z)


def expected_svd_calls(labels) -> int:
    """SVDs one loss-and-gradient call needs: one per class with a positive,
    plus one for the whole batch."""
    labels = np.asarray(labels)
    return int((labels == 1).any(axis=0).sum()) + (1 if labels.shape[0] else 0)


def check_identical(label: str, texts) -> list[str]:
    """Every repeat produced the same text."""
    texts = list(texts)
    bad = [i for i, t in enumerate(texts) if t != texts[0]]
    if bad:
        return [f"{label}: repeat {bad[0]} differs from repeat 0 ({len(texts)} repeats)"]
    return []


def check_contrast_nonnegative(label: str, contrast_losses) -> list[str]:
    return [
        f"{label}: epoch {i + 1} contrast_loss {v!r} < 0"
        for i, v in enumerate(contrast_losses)
        if not v >= -NONNEG_TOL
    ]


def check_map(label: str, reported: float, probs, truth) -> list[str]:
    """The reported mAP equals the oracle's on the same probabilities."""
    expected = mean_average_precision(probs, truth)
    if not abs(reported - expected) <= MAP_TOL:
        return [f"{label}: map {reported!r} but the oracle gives {expected!r}"]
    return []


def check_learned(label: str, trained: float, untrained: float) -> list[str]:
    if not trained > untrained:
        return [f"{label}: trained map {trained!r} does not exceed untrained {untrained!r}"]
    return []


def check_same_bytes(label: str, a: str, b: str) -> list[str]:
    if a != b:
        return [f"{label}: outputs differ"]
    return []


def check_arrays_exact(label: str, pairs) -> list[str]:
    """Each (name, before, after) pair is bit-identical in shape, dtype and bytes."""
    out = []
    for name, before, after in pairs:
        before = np.asarray(before)
        after = np.asarray(after)
        same = (
            before.shape == after.shape
            and before.dtype == after.dtype
            and before.tobytes() == after.tobytes()
        )
        if not same:
            out.append(f"{label}: {name} changed in the round trip")
    return out


def check_loss_value(label: str, value: float, z, labels) -> list[str]:
    """The program's contrastive loss agrees with the eigvalsh recomputation."""
    expected = contrastive_loss(z, labels)
    scale = max(1.0, nuclear_norm(z))
    if not (math.isfinite(value) and abs(value - expected) <= LOSS_RTOL * scale):
        return [f"{label}: loss {value!r} but eigvalsh gives {expected!r}"]
    return []


def check_svd_count(label: str, svd_calls: int, expected: int) -> list[str]:
    if svd_calls != expected:
        return [f"{label}: {svd_calls} SVD calls, expected {expected} from the labels"]
    return []
