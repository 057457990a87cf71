"""Reference per-class loop of the contrastive loss and its gradient.

This is the straightforward form of the loop in ``nucontrast.contrast``: it
visits every class in ascending order, empty ones included, selects each
class's positive rows by index, sends every block (one-row blocks too)
through ``numpy.linalg.svd``, and keeps singular vectors with a boolean
mask. Signs of the singular vectors do not matter here, because every use is
the product ``u_kept @ v_kept.T``.

``boolean_column_loss_and_gradient`` is the byte reference: the loop as it
stood before the row runs, selecting each class's rows with a boolean column
and sending every block through ``linalg._norm_and_subgradient``.
"""

import numpy as np

from nucontrast import linalg


def _svd(a):
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, vh.T


def reference_loss_and_gradient(z, labels, sv_threshold=1e-6):
    """(sum_k ||z[positives of k]||_* - ||z||_*, its truncated subgradient)."""
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    value = 0.0
    grad = np.zeros_like(z)
    for k in range(labels.shape[1]):
        rows = np.flatnonzero(labels[:, k] == 1)
        if rows.size == 0:
            continue
        u, s, v = _svd(z[rows])
        value += float(s.sum())
        keep = s > sv_threshold * s[0]
        grad[rows] += u[:, keep] @ v[:, keep].T
    if z.size == 0:
        return value, grad
    u, s, v = _svd(z)
    value -= float(s.sum())
    keep = s > sv_threshold * s[0]
    grad -= u[:, keep] @ v[:, keep].T
    return value, grad


def boolean_column_loss_and_gradient(z, labels, sv_threshold=1e-6):
    """The same pair as ``contrastive_loss_and_gradient``, bit for bit, from
    a boolean gather and scatter per present class in ascending order."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    pos = np.asarray(labels) == 1
    value = 0.0
    grad = np.zeros(z.shape)
    if z.size == 0:
        return value, grad
    for k in np.logical_or.reduce(pos, axis=0).nonzero()[0].tolist():
        rows = pos[:, k]
        norm, sub = linalg._norm_and_subgradient(z[rows], sv_threshold)
        value += norm
        grad[rows] += sub
    norm, sub = linalg._norm_and_subgradient(z, sv_threshold)
    return value - norm, grad - sub
