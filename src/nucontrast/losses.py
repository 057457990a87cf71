"""Classification losses over logits, with analytic gradients.

Both losses treat a -1 label as a plain negative target (missing positives
therefore count as negatives until label correction rescues them) and reduce
by the mean over all N*C label slots. Each returns ``(value, grad_logits)``,
the gradient of that mean, as ``contrast.contrastive_loss_and_gradient``
returns its pair.
"""

from __future__ import annotations

import math

import numpy as np

from .contrast import check_scored_labels
from .seeding import check_real


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function.

    exp only ever sees -|x|, so it cannot overflow: 1 / (1 + e^-x) for
    x >= 0 and e^x / (1 + e^x) below. ``minimum(x, -x)`` rather than
    ``-abs(x)`` passes a NaN through with its sign bit unchanged.
    """
    return _sigmoid(np.asarray(x, dtype=np.float64))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``sigmoid`` of a float64 array; no conversion of its own."""
    ex = np.negative(x)
    np.minimum(x, ex, out=ex)
    np.exp(ex, out=ex)
    out = np.where(x >= 0, 1.0, ex)
    ex += 1.0
    out /= ex
    return out


def bce_loss(logits, labels) -> tuple[float, np.ndarray]:
    """Mean sigmoid binary cross-entropy; target is 1 for +1 labels, else 0."""
    logits, pos = check_scored_labels(logits, labels, "logits", "labels")
    return _bce(logits, pos, _sigmoid(logits))


def _bce(logits: np.ndarray, pos: np.ndarray, probs: np.ndarray) -> tuple[float, np.ndarray]:
    """(value, grad_logits) of ``bce_loss`` for checked float64 ``logits``,
    the bool mask ``pos`` of the +1 labels, and ``probs = sigmoid(logits)``;
    no check of its own."""
    # -margin is -logit for a +1 label and logit for a -1 label; softplus of
    # it in place; the sum over size is what .mean() computes, and the bool
    # target subtracts as 1.0/0.0
    sp = np.where(pos, -logits, logits)
    np.logaddexp(0.0, sp, out=sp)
    value = float(np.add.reduce(sp, axis=None) / sp.size)
    grad = probs - pos
    grad /= logits.size
    return value, grad


def check_finite_nonnegative(name: str, value) -> None:
    """The rule for the focal exponent and the structure-loss weight."""
    check_real(name, value)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def check_gamma(gamma) -> None:
    check_finite_nonnegative("focal gamma", gamma)


def focal_loss(logits, labels, gamma: float = 2.0) -> tuple[float, np.ndarray]:
    """Mean focal loss: cross-entropy damped by (1 - p_t)**gamma.

    Reduces exactly to ``bce_loss`` at gamma = 0.
    """
    check_gamma(gamma)
    logits, pos = check_scored_labels(logits, labels, "logits", "labels")
    return _focal(logits, pos, gamma)


def _focal(logits: np.ndarray, pos: np.ndarray, gamma: float) -> tuple[float, np.ndarray]:
    """(value, grad_logits) of ``focal_loss`` for checked float64 ``logits``,
    the bool mask ``pos`` of the +1 labels, and a checked ``gamma``; no
    check of its own."""
    y = np.where(pos, 1.0, -1.0)
    margins = y * logits
    pt = _sigmoid(margins)         # probability assigned to the true target
    qt = _sigmoid(-margins)        # 1 - pt, computed stably
    ce = np.logaddexp(0.0, -margins)  # -log(pt), softplus without overflow
    damp = qt**gamma
    value = float((ce * damp).mean())
    # d/dlogit of one slot, via pt' = y * pt * qt:
    grad = y * (-gamma * pt * damp * ce - qt * damp) / logits.size
    return value, grad
