"""Runtime self-verification: property samplers behind gradcheck/selftest.

Each check draws seeded random instances, measures the worst violation, and
reports pass/fail against a fixed bound. Gradient checks compare analytic
values against central finite differences; degenerate singular spectra (where
the nuclear norm is not differentiable) are resampled and counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import contrast, linalg, losses, model
from .seeding import component_rng

FD_STEP = 1e-5
SPECTRUM_MARGIN = 0.05  # min relative gap / smallest singular value accepted


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{self.name:<22} worst {self.worst:.3e}  bound {self.bound:.1e}  {status}{extra}"


def _spectrum_ok(a: np.ndarray) -> bool:
    if a.shape[0] == 0:
        return True
    s = linalg.svd(a).s
    if s[0] == 0.0:
        return False
    rel = s / s[0]
    if rel[-1] < SPECTRUM_MARGIN:
        return False
    # consecutive singular values must be separated for differentiability
    return len(s) == 1 or bool(np.diff(rel).max() <= -SPECTRUM_MARGIN)


def _labels_with_positive_rows(rng, n, c) -> np.ndarray:
    labels = np.where(rng.random((n, c)) < 0.4, 1, -1).astype(np.int8)
    for i in range(n):
        if not (labels[i] == 1).any():
            labels[i, rng.integers(c)] = 1
    return labels


def _fd_nuclear_gradient(a: np.ndarray, step: float) -> np.ndarray:
    g = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            hi = a.copy()
            lo = a.copy()
            hi[i, j] += step
            lo[i, j] -= step
            g[i, j] = (linalg.nuclear_norm(hi) - linalg.nuclear_norm(lo)) / (2 * step)
    return g


def check_subgradient_fd(trials: int = 200, seed: int = 0) -> CheckResult:
    """Nuclear-norm subgradient against entrywise finite differences."""
    rng = component_rng(seed, "check")
    worst = 0.0
    for _ in range(trials):
        while True:
            m = int(rng.integers(2, 8))
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(m, n))
            if _spectrum_ok(a):
                break
        analytic = linalg.nuclear_subgradient(a)
        fd = _fd_nuclear_gradient(a, FD_STEP)
        err = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-6)
        worst = max(worst, err)
    return CheckResult("subgradient_fd", worst < 1e-4, worst, 1e-4)


def _contrast_instance_ok(z, labels) -> bool:
    if not _spectrum_ok(z):
        return False
    for k in range(labels.shape[1]):
        sub = z[labels[:, k] == 1]
        if sub.shape[0] and not _spectrum_ok(sub):
            return False
    return True


def check_contrast_fd(trials: int = 200, seed: int = 1) -> CheckResult:
    """Directional finite differences of the contrastive loss vs its gradient."""
    rng = component_rng(seed, "check")
    worst = 0.0
    for _ in range(trials):
        while True:
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 6))
            c = int(rng.integers(1, 5))
            z = rng.normal(size=(n, d))
            labels = _labels_with_positive_rows(rng, n, c)
            if _contrast_instance_ok(z, labels):
                break
        grad = contrast.contrastive_gradient(z, labels)
        direction = rng.normal(size=z.shape)
        fd = (
            contrast.contrastive_loss(z + FD_STEP * direction, labels)
            - contrast.contrastive_loss(z - FD_STEP * direction, labels)
        ) / (2 * FD_STEP)
        analytic = float((grad * direction).sum())
        err = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6)
        worst = max(worst, err)
    return CheckResult("contrast_fd", worst < 1e-3, worst, 1e-3)


def check_model_fd(trials: int = 20, seed: int = 2) -> CheckResult:
    """Total-objective parameter gradients vs central finite differences,
    ``trials`` instances for each output activation."""
    rng = component_rng(seed, "check")
    worst = 0.0
    lam = 1.0
    for activation in model.OUTPUT_ACTIVATIONS:
        for _ in range(trials):
            while True:
                params = model.init_params((6, 8, 4), 3, rng, activation)
                x = rng.normal(size=(4, 6))
                labels = _labels_with_positive_rows(rng, 4, 3)
                z, _ = model.embed_forward(params, x)
                if _contrast_instance_ok(z, labels):
                    break

            def objective(p):
                z, _ = model.embed_forward(p, x)
                logits = model.classify(p, z)
                return (
                    losses.bce_loss(logits, labels).value
                    + lam * contrast.contrastive_loss(z, labels)
                )

            z, cache = model.embed_forward(params, x)
            logits = model.classify(params, z)
            grad_logits = losses.bce_loss(logits, labels).grad_logits
            grad_z = lam * contrast.contrastive_gradient(z, labels)
            grads = model.backward(params, cache, grad_logits, grad_z)

            for arr, g in zip(params.arrays(), params.views(grads)):
                fd = np.zeros_like(arr)
                flat = arr.ravel()
                fd_flat = fd.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + FD_STEP
                    hi = objective(params)
                    flat[idx] = orig - FD_STEP
                    lo = objective(params)
                    flat[idx] = orig
                    fd_flat[idx] = (hi - lo) / (2 * FD_STEP)
                err = np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-6)
                worst = max(worst, err)
    return CheckResult("model_fd", worst < 1e-3, worst, 1e-3)


def check_stack_inequality(trials: int = 1000, seed: int = 3) -> CheckResult:
    """Row-stack nuclear-norm inequality: |[A;B;C]|_* <= |[A;C]|_* + |[B;C]|_*."""
    rng = component_rng(seed, "check")
    worst = -np.inf
    violations = 0
    for _ in range(trials):
        d = int(rng.integers(1, 7))
        blocks = [rng.normal(size=(int(rng.integers(1, 7)), d)) for _ in range(3)]
        a, b, c = blocks
        lhs = linalg.nuclear_norm(np.vstack((a, b, c)))
        rhs = linalg.nuclear_norm(np.vstack((a, c))) + linalg.nuclear_norm(np.vstack((b, c)))
        gap = lhs - rhs
        worst = max(worst, gap)
        if gap > 1e-8:
            violations += 1
    return CheckResult(
        "stack_inequality",
        violations == 0,
        worst,
        1e-8,
        detail=f"{violations} violations in {trials} trials",
    )


def check_nonnegativity(trials: int = 1000, seed: int = 4) -> CheckResult:
    """Contrastive loss >= 0 when every row has at least one positive label."""
    rng = component_rng(seed, "check")
    worst = np.inf
    violations = 0
    for _ in range(trials):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 7))
        c = int(rng.integers(1, 6))
        z = rng.normal(size=(n, d))
        labels = _labels_with_positive_rows(rng, n, c)
        value = contrast.contrastive_loss(z, labels)
        worst = min(worst, value)
        if value < -1e-8:
            violations += 1
    return CheckResult(
        "loss_nonnegativity",
        violations == 0,
        worst,
        -1e-8,
        detail=f"{violations} violations in {trials} trials",
    )


def check_svd_reconstruction(trials: int = 200, seed: int = 5) -> CheckResult:
    """Reconstruction and orthonormality of the SVD."""
    rng = component_rng(seed, "check")
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 33))
        a = rng.normal(size=(m, n))
        u, s, v = linalg.svd(a)
        recon = np.linalg.norm(u * s @ v.T - a) / max(np.linalg.norm(a), 1e-300)
        r = s.size
        orth = max(
            np.abs(u.T @ u - np.eye(r)).max(),
            np.abs(v.T @ v - np.eye(r)).max(),
        )
        worst = max(worst, recon, orth)
    return CheckResult("svd_reconstruction", worst < 1e-9, worst, 1e-9)


def check_correction_table() -> CheckResult:
    """Exhaustive truth table of label correction and its epoch gate."""
    cfg = contrast.CorrectionConfig(threshold=0.6, start_epoch=2)
    bad = 0
    for observed in (-1, 1):
        for prob, above in ((0.9, True), (0.3, False)):
            for epoch in (1, 2):
                got = contrast.effective_labels(
                    np.array([[observed]]), np.array([[prob]]), epoch, cfg
                )[0, 0]
                gated = epoch >= cfg.start_epoch
                want = 1 if (gated and above) else observed
                if got != want:
                    bad += 1
    return CheckResult(
        "correction_table", bad == 0, float(bad), 0.0, detail="8 cells"
    )


def run_gradcheck(trials: int, seed: int) -> list[CheckResult]:
    return [
        check_subgradient_fd(trials, seed),
        check_contrast_fd(trials, seed + 1),
        check_model_fd(max(1, trials // 10), seed + 2),
    ]


def run_selftest(trials: int, seed: int) -> list[CheckResult]:
    return run_gradcheck(trials, seed) + [
        check_stack_inequality(trials * 5, seed + 3),
        check_nonnegativity(trials * 5, seed + 4),
        check_svd_reconstruction(trials, seed + 5),
        check_correction_table(),
    ]
