"""Classification losses over logits, with analytic gradients.

Both losses treat a -1 label as a plain negative target (missing positives
therefore count as negatives until label correction rescues them) and reduce
by the mean over all N*C label slots, so the gradient of the mean is what
``grad_logits`` carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contrast import as_label_matrix
from .linalg import DimensionError, as_matrix


@dataclass(frozen=True)
class LossOutput:
    value: float
    grad_logits: np.ndarray


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function.

    exp only ever sees -|x|, so it cannot overflow: 1 / (1 + e^-x) for
    x >= 0 and e^x / (1 + e^x) below. ``minimum(x, -x)`` rather than
    ``-abs(x)`` passes a NaN through with its sign bit unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    ex = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + exp(x)) without overflow
    return np.logaddexp(0.0, x)


def _check(logits, labels):
    logits = as_matrix(logits, "logits")
    labels = as_label_matrix(labels)
    if logits.shape != labels.shape:
        raise DimensionError(
            f"logits shape {logits.shape} does not match labels {labels.shape}"
        )
    return logits, labels


def bce_loss(logits, labels) -> LossOutput:
    """Mean sigmoid binary cross-entropy; target is 1 for +1 labels, else 0."""
    logits, labels = _check(logits, labels)
    y = labels.astype(np.float64)
    margins = y * logits
    value = float(_softplus(-margins).mean())
    target = (y + 1.0) / 2.0
    grad = (sigmoid(logits) - target) / logits.size
    return LossOutput(value, grad)


def focal_loss(logits, labels, gamma: float = 2.0) -> LossOutput:
    """Mean focal loss: cross-entropy damped by (1 - p_t)**gamma.

    Reduces exactly to ``bce_loss`` at gamma = 0.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    logits, labels = _check(logits, labels)
    y = labels.astype(np.float64)
    margins = y * logits
    pt = sigmoid(margins)          # probability assigned to the true target
    qt = sigmoid(-margins)         # 1 - pt, computed stably
    ce = _softplus(-margins)       # -log(pt)
    damp = qt**gamma
    value = float((ce * damp).mean())
    # d/dlogit of one slot, via pt' = y * pt * qt:
    grad = y * (-gamma * pt * damp * ce - qt * damp) / logits.size
    return LossOutput(value, grad)
