"""Reference singular values from a one-sided Jacobi iteration in numpy.

The library computes its SVDs through LAPACK, so tests that compare against
``np.linalg.svd`` would check LAPACK against itself. This oracle takes an
independent path: it rotates column pairs until all columns are mutually
orthogonal, and the singular values are then the column norms.
"""

import math

import numpy as np

# Convergence: |a_p . a_q| relative to ||a_p|| ||a_q||.
TOL = 1e-12
MAX_SWEEPS = 60


def jacobi_singular_values(a) -> np.ndarray:
    """Singular values of ``a``, nonincreasing; raises if the sweeps do not converge."""
    a = np.array(a, dtype=np.float64)
    if a.shape[0] < a.shape[1]:
        a = a.T.copy()  # fewer columns means fewer pairs to rotate
    n = a.shape[1]
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                cols = a[:, (p, q)]
                gram = cols.T @ cols
                alpha = float(gram[0, 0])
                beta = float(gram[1, 1])
                gamma = float(gram[0, 1])
                # separate square roots keep the test exact when alpha * beta
                # would underflow
                if abs(gamma) <= TOL * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                if zeta >= 0.0:
                    t = 1.0 / (zeta + math.hypot(1.0, zeta))
                else:
                    t = -1.0 / (-zeta + math.hypot(1.0, zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                a[:, (p, q)] = cols @ np.array(((c, s), (-s, c)))
        if not rotated:
            return np.sort(np.sqrt(np.einsum("ij,ij->j", a, a)))[::-1]
    raise RuntimeError(f"Jacobi oracle did not converge in {MAX_SWEEPS} sweeps")
