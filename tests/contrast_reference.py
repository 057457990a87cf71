"""Reference per-class loop of the contrastive loss and its gradient.

This is the straightforward form of the loop in ``nucontrast.contrast``: it
visits every class in ascending order, empty ones included, selects each
class's positive rows by index, sends every block (one-row blocks too)
through ``numpy.linalg.svd``, and keeps singular vectors with a boolean
mask. Signs of the singular vectors do not matter here, because every use is
the product ``u_kept @ v_kept.T``.
"""

import numpy as np


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
