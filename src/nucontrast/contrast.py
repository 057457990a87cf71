"""Label-structure contrastive loss on batch embeddings, plus label correction.

For a batch embedding z (one row per sample) and labels in {-1, +1}, the loss
is

    sum_k ||z[rows positive for class k]||_*  -  ||z||_*

which is nonnegative whenever every row carries at least one positive label:
stacking the per-class row blocks reproduces (a row-duplicated copy of) z, and
the nuclear norm of a stack is bounded by the sum of the blocks' norms.

Label correction flips an observed negative to positive once the classifier's
predicted probability for that slot reaches a threshold, and is gated to start
at a configured epoch.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DEFAULT_SV_THRESHOLD, DimensionError, check_2d, check_sv_threshold
from .seeding import check_count


def _positive_mask(labels, name: str = "labels") -> np.ndarray:
    """Require a 2-D array whose entries are all -1 or +1; return ``labels == 1``.

    The raw values are checked, so an entry that only casts to a label
    (257, 1.7) is rejected.
    """
    out = np.asarray(labels)
    check_2d(out, name)
    pos = out == 1
    # the two sets are disjoint, so their sizes add up to the size iff they cover it
    if np.count_nonzero(pos) + np.count_nonzero(out == -1) != out.size:
        raise ValueError(f"{name} entries must all be -1 or +1")
    return pos


def as_label_matrix(labels, name: str = "labels") -> np.ndarray:
    """Require every entry to be -1 or +1, then copy to a 2-D int8 array."""
    _positive_mask(labels, name)
    return np.asarray(labels).astype(np.int8)


def check_scored_labels(scores, labels, scores_name: str, labels_name: str):
    """Scores checked by ``linalg.as_matrix``, and ``labels == 1`` for same-shape -1/+1 labels."""
    scores = linalg.as_matrix(scores, scores_name)
    pos = _positive_mask(labels, labels_name)
    if scores.shape != pos.shape:
        raise DimensionError(f"score shape {scores.shape} does not match label shape {pos.shape}")
    return scores, pos


def check_correction_threshold(threshold) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"correction threshold must be in (0, 1), got {threshold!r}")


def check_probs(probs: np.ndarray) -> None:
    """Require every entry of a validated probability matrix to lie in [0, 1]."""
    lo, hi = probs.min(), probs.max()
    if lo < 0.0 or hi > 1.0:
        bad = float(lo if lo < 0.0 else hi)
        raise ValueError(f"probs entries must lie in [0, 1], got {bad!r}")


@dataclass(frozen=True)
class CorrectionConfig:
    """Knobs for label correction.

    threshold: predicted probability at or above which an observed negative
        is flipped to positive (strictly between 0 and 1).
    start_epoch: first epoch (1-based) at which correction is applied.
    """

    threshold: float = 0.6
    start_epoch: int = 1

    def __post_init__(self):
        check_correction_threshold(self.threshold)
        check_count("start_epoch", self.start_epoch, 1)


def _check_pair(z, labels):
    """Validated embedding and one row selector per present class.

    The positive slots come from one ``nonzero`` over the transposed mask,
    so they are sorted by class and then by row. Each class with a positive
    row gets one selector, in ascending class order: a ``slice`` when its
    rows form a contiguous run (always so at batch 2), else an index array
    of its rows. Warns, at the caller's line, when some row has no positive.
    """
    z = linalg.as_matrix(z, "embedding")
    pos = _positive_mask(labels)
    n_rows = z.shape[0]
    if pos.shape[0] != n_rows:
        raise DimensionError(
            f"embedding has {n_rows} rows but labels has {pos.shape[0]}"
        )
    ks, rows = np.nonzero(pos.T)
    ks, rs = ks.tolist(), rows.tolist()
    if len(set(rs)) < n_rows:
        warnings.warn(
            "some rows have no positive label; loss nonnegativity is not "
            "guaranteed for them",
            stacklevel=3,
        )
    selectors = []
    start, end = 0, len(ks)
    while start < end:
        stop = bisect_right(ks, ks[start], start)
        first, last = rs[start], rs[stop - 1]
        if last - first == stop - 1 - start:  # rows ascend, so none is missing
            selectors.append(slice(first, last + 1))
        else:
            selectors.append(rows[start:stop])
        start = stop
    return z, selectors


def contrastive_loss_and_gradient(
    z, labels, sv_threshold: float = DEFAULT_SV_THRESHOLD
) -> tuple[float, np.ndarray]:
    """Per-class nuclear norms of the embedding minus the whole-batch norm,
    and the loss's descent direction with respect to ``z``.

    Each class with a positive row contributes the nuclear-norm subgradient
    of its positive-row block, added back onto those rows (a contiguous run
    of rows is read and written through a view); the whole-batch subgradient
    is subtracted at the end. One ``linalg.svd`` call per present class plus
    one for the batch.
    """
    z, selectors = _check_pair(z, labels)
    check_sv_threshold(sv_threshold)

    value = 0.0
    grad = np.zeros(z.shape)
    if z.size == 0:
        return value, grad
    # Every row accumulates its classes in ascending class order and then
    # loses the batch term, which keeps results bit-stable.
    for sel in selectors:
        norm, sub = linalg._norm_and_subgradient(z[sel], sv_threshold)
        value += norm
        grad[sel] += sub
    norm, sub = linalg._norm_and_subgradient(z, sv_threshold)
    grad -= sub
    return value - norm, grad


def correct_labels(observed, probs, threshold: float) -> np.ndarray:
    """Flip observed negatives to +1 wherever ``probs >= threshold``.

    Positives are never demoted, so the corrected positive set always
    contains the observed one.
    """
    probs, _ = check_scored_labels(probs, observed, "probs", "observed")
    check_probs(probs)
    check_correction_threshold(threshold)
    return _correct(np.asarray(observed), probs, threshold)


def _correct(observed: np.ndarray, probs: np.ndarray, threshold: float) -> np.ndarray:
    """``correct_labels`` of checked arguments: an int8 copy of ``observed``
    with every slot where ``probs >= threshold`` set to +1; no check of its own."""
    out = observed.astype(np.int8)
    out[probs >= threshold] = 1
    return out


def effective_labels(observed, probs, epoch: int, cfg: CorrectionConfig) -> np.ndarray:
    """Labels the batch trains on at ``epoch`` (1-based).

    Before ``cfg.start_epoch`` the observed labels pass through untouched;
    from then on they are corrected against the current predictions.
    """
    if epoch < cfg.start_epoch:
        return as_label_matrix(observed, "observed")
    return correct_labels(observed, probs, cfg.threshold)
