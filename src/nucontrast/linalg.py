"""Dense linear algebra: SVD (LAPACK via numpy), nuclear norm, and the
truncated subgradient used by the embedding loss.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Default truncation for the nuclear-norm subgradient, as a fraction of the
# largest singular value (scale invariant).
DEFAULT_SV_THRESHOLD = 1e-6


class DimensionError(ValueError):
    """Shapes do not conform for the requested operation."""


class SvdResult(NamedTuple):
    """Thin SVD ``a = u @ diag(s) @ v.T`` with r = min(rows, cols).

    u is rows x r and v is cols x r, both with orthonormal columns; s is
    nonincreasing and nonnegative. For a distinct singular value s[k], the
    pair (u[:, k], v[:, k]) is unique only up to one common sign.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def check_2d(a: np.ndarray, name: str) -> None:
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={a.ndim}")


def check_sv_threshold(sv_threshold) -> None:
    if not sv_threshold > 0:
        raise ValueError(f"sv_threshold must be > 0, got {sv_threshold!r}")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, rejecting non-finite entries."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    check_2d(out, name)
    if np.count_nonzero(np.isfinite(out)) != out.size:
        raise ValueError(f"{name} contains non-finite entries")
    return out


def svd(a) -> SvdResult:
    """Thin SVD of a nonempty matrix.

    A one-row matrix takes the exact closed form s = [||a||], u = [[1]],
    v = a.T / ||a||, with the norm from ``math.hypot`` (no overflow or
    underflow); a zero row gives s = [0] and v = e1, as LAPACK does. Any
    other matrix returns LAPACK's factors as they are, so the sign of each
    (u, v) column pair is LAPACK's. The package reads only s and products
    u @ v.T, whose bytes do not depend on those signs. Raises
    numpy.linalg.LinAlgError if LAPACK does not converge.
    """
    a = as_matrix(a)
    if a.size == 0:
        raise DimensionError("svd requires a nonempty matrix")
    if a.shape[0] == 1:
        norm = math.hypot(*a[0].tolist())
        if norm:
            v = a.T / norm
        else:
            v = np.zeros((a.shape[1], 1))
            v[0, 0] = 1.0
        return SvdResult(np.ones((1, 1)), np.array([norm]), v)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u, s, vh.T)


def nuclear_norm(a) -> float:
    """Sum of singular values. Empty matrices (0 rows or columns) give 0."""
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(svd(a).s.sum())


def nuclear_subgradient(a, sv_threshold: float = DEFAULT_SV_THRESHOLD) -> np.ndarray:
    """Subgradient ``u1 @ v1.T`` of the nuclear norm at ``a``.

    u1, v1 keep the singular vectors whose singular values exceed
    ``sv_threshold`` times the largest singular value. The result has the
    same shape as ``a`` with every entry in [-1, 1]; for an empty input it is
    an empty matrix of the same shape.
    """
    check_sv_threshold(sv_threshold)
    a = as_matrix(a)
    if a.size == 0:
        return np.zeros_like(a)
    return _norm_and_subgradient(a, sv_threshold)[1]


def _norm_and_subgradient(a, sv_threshold: float) -> tuple[float, np.ndarray]:
    """Nuclear norm of a nonempty ``a`` and its truncated subgradient
    ``u1 @ v1.T``, from one call of this module's ``svd`` attribute.

    A one-row ``a`` takes svd's closed form, where u is [[1.0]]: the norm is
    s[0] and the subgradient is v.T, or zeros when the cut keeps nothing.
    ``v.T + 0.0`` is the product's bytes exactly, since the product computes
    0.0 + 1.0 * x, which is x except that -0.0 becomes +0.0.
    """
    u, s, v = svd(a)
    if u.shape[0] == 1:
        norm = s[0]
        if norm > sv_threshold * norm:
            return float(norm), v.T + 0.0
        return float(norm), np.zeros((1, v.shape[0]))
    r = np.count_nonzero(s > sv_threshold * s[0])  # s is nonincreasing
    return float(np.add.reduce(s)), u[:, :r] @ v[:, :r].T
