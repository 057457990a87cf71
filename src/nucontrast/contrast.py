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
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DEFAULT_SV_THRESHOLD, DimensionError


def as_label_matrix(labels, name: str = "labels") -> np.ndarray:
    """Require every entry to be -1 or +1, then copy to a 2-D int8 array.

    The values are checked before the cast, so an entry that only casts to a
    label (257, 1.7) is rejected.
    """
    out = np.asarray(labels)
    if out.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={out.ndim}")
    if not ((out == 1) | (out == -1)).all():
        raise ValueError(f"{name} entries must all be -1 or +1")
    return out.astype(np.int8, copy=True)


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
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(
                f"correction threshold must be in (0, 1), got {self.threshold!r}"
            )
        if self.start_epoch < 1:
            raise ValueError(f"start_epoch must be >= 1, got {self.start_epoch!r}")


def _check_pair(z, labels):
    """Validated embedding and the boolean mask of positive label slots."""
    z = linalg.as_matrix(z, "embedding")
    labels = as_label_matrix(labels)
    if labels.shape[0] != z.shape[0]:
        raise DimensionError(
            f"embedding has {z.shape[0]} rows but labels has {labels.shape[0]}"
        )
    pos = labels == 1
    if not pos.any(axis=1).all():
        warnings.warn(
            "some rows have no positive label; loss nonnegativity is not "
            "guaranteed for them",
            stacklevel=4,
        )
    return z, pos


def contrastive_loss(z, labels) -> float:
    """Per-class nuclear norms of the embedding minus the whole-batch norm."""
    value, _ = _loss_and_optional_gradient(z, labels, None)
    return value


def contrastive_gradient(z, labels, sv_threshold: float = DEFAULT_SV_THRESHOLD) -> np.ndarray:
    """Descent direction of the contrastive loss with respect to ``z``.

    Each class contributes the nuclear-norm subgradient of its positive-row
    submatrix, scattered back to the source rows (other rows padded with
    zeros); the whole-batch subgradient is subtracted at the end.
    """
    _, grad = _loss_and_optional_gradient(z, labels, sv_threshold)
    return grad


def contrastive_loss_and_gradient(
    z, labels, sv_threshold: float = DEFAULT_SV_THRESHOLD
) -> tuple[float, np.ndarray]:
    """Loss and gradient from one SVD per submatrix (the training hot path)."""
    return _loss_and_optional_gradient(z, labels, sv_threshold)


def _loss_and_optional_gradient(z, labels, sv_threshold):
    z, pos = _check_pair(z, labels)
    want_grad = sv_threshold is not None
    if want_grad and not sv_threshold > 0:
        raise ValueError("sv_threshold must be positive")

    value = 0.0
    grad = np.zeros_like(z) if want_grad else None
    # Fixed ascending-class accumulation order keeps results bit-stable;
    # classes without a positive row contribute nothing and are skipped.
    for k in np.flatnonzero(pos.any(axis=0)):
        rows = pos[:, k]
        sub = z[rows]
        if want_grad:
            u, s, v = linalg.svd(sub)
            value += float(s.sum())
            # s is nonincreasing, so the kept singular vectors are a prefix
            r = np.count_nonzero(s > sv_threshold * s[0])
            grad[rows] += u[:, :r] @ v[:, :r].T
        else:
            value += linalg.nuclear_norm(sub)
    if z.size == 0:
        return value, grad
    if want_grad:
        u, s, v = linalg.svd(z)
        value -= float(s.sum())
        r = np.count_nonzero(s > sv_threshold * s[0])
        grad -= u[:, :r] @ v[:, :r].T
    else:
        value -= linalg.nuclear_norm(z)
    return value, grad


def correct_labels(observed, probs, threshold: float) -> np.ndarray:
    """Flip observed negatives to +1 wherever ``probs >= threshold``.

    Positives are never demoted, so the corrected positive set always
    contains the observed one.
    """
    observed = as_label_matrix(observed, "observed")
    probs = linalg.as_matrix(probs, "probs")
    if probs.shape != observed.shape:
        raise DimensionError("probs and observed shapes differ")
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise ValueError("probs entries must lie in [0, 1]")
    if not 0.0 < threshold < 1.0:
        raise ValueError("correction threshold must be in (0, 1)")
    corrected = observed.copy()
    corrected[probs >= threshold] = 1
    return corrected


def effective_labels(observed, probs, epoch: int, cfg: CorrectionConfig) -> np.ndarray:
    """Labels the batch trains on at ``epoch`` (1-based).

    Before ``cfg.start_epoch`` the observed labels pass through untouched;
    from then on they are corrected against the current predictions.
    """
    if epoch < cfg.start_epoch:
        return as_label_matrix(observed, "observed")
    return correct_labels(observed, probs, cfg.threshold)
