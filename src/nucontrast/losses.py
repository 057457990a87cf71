"""Classification losses over logits, with analytic gradients.

Both losses treat a -1 label as a plain negative target (missing positives
therefore count as negatives until label correction rescues them) and reduce
by the mean over all N*C label slots, so the gradient of the mean is what
``grad_logits`` carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contrast import check_scored_labels


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


def bce_loss(logits, labels) -> LossOutput:
    """Mean sigmoid binary cross-entropy; target is 1 for +1 labels, else 0."""
    logits, pos = check_scored_labels(logits, labels, "logits", "labels")
    # -margin is -logit for a +1 label and logit for a -1 label; the sum over
    # size is what .mean() computes, and the bool target subtracts as 1.0/0.0
    sp = _softplus(np.where(pos, -logits, logits))
    value = float(np.add.reduce(sp, axis=None) / sp.size)
    grad = (sigmoid(logits) - pos) / logits.size
    return LossOutput(value, grad)


def check_finite_nonnegative(name: str, value) -> None:
    """The rule for the focal exponent and the structure-loss weight."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def check_gamma(gamma) -> None:
    check_finite_nonnegative("focal gamma", gamma)


def focal_loss(logits, labels, gamma: float = 2.0) -> LossOutput:
    """Mean focal loss: cross-entropy damped by (1 - p_t)**gamma.

    Reduces exactly to ``bce_loss`` at gamma = 0.
    """
    check_gamma(gamma)
    logits, pos = check_scored_labels(logits, labels, "logits", "labels")
    y = np.where(pos, 1.0, -1.0)
    margins = y * logits
    pt = sigmoid(margins)          # probability assigned to the true target
    qt = sigmoid(-margins)         # 1 - pt, computed stably
    ce = _softplus(-margins)       # -log(pt)
    damp = qt**gamma
    value = float((ce * damp).mean())
    # d/dlogit of one slot, via pt' = y * pt * qt:
    grad = y * (-gamma * pt * damp * ce - qt * damp) / logits.size
    return LossOutput(value, grad)
