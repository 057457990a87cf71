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
from .seeding import check_count, component_rng

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


def _central_differences(objective, arr: np.ndarray) -> np.ndarray:
    """Central differences of the zero-argument ``objective`` over each entry
    of the contiguous ``arr``, which is perturbed in place and restored."""
    flat = arr.reshape(-1)  # a view, since arr is contiguous
    fd = np.empty_like(flat)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + FD_STEP
        hi = objective()
        flat[idx] = orig - FD_STEP
        lo = objective()
        flat[idx] = orig
        fd[idx] = (hi - lo) / (2 * FD_STEP)
    return fd.reshape(arr.shape)


def check_subgradient_fd(trials: int, seed: int) -> CheckResult:
    """Nuclear-norm subgradient against entrywise finite differences."""
    rng = component_rng(seed, "check")
    errs = []
    for _ in range(trials):
        while True:
            m = int(rng.integers(2, 8))
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(m, n))
            if _spectrum_ok(a):
                break
        analytic = linalg.nuclear_subgradient(a)
        fd = _central_differences(lambda: linalg.nuclear_norm(a), a)
        errs.append(np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-6))
    worst = float(np.max(errs))  # NaN if any error is NaN
    return CheckResult("subgradient_fd", worst < 1e-4, worst, 1e-4)


def _contrast_instance_ok(z, labels) -> bool:
    if not _spectrum_ok(z):
        return False
    for k in range(labels.shape[1]):
        sub = z[labels[:, k] == 1]
        if sub.shape[0] and not _spectrum_ok(sub):
            return False
    return True


def check_contrast_fd(trials: int, seed: int) -> CheckResult:
    """Directional finite differences of the contrastive loss vs its gradient."""
    rng = component_rng(seed, "check")
    errs = []
    for _ in range(trials):
        while True:
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 6))
            c = int(rng.integers(1, 5))
            z = rng.normal(size=(n, d))
            labels = _labels_with_positive_rows(rng, n, c)
            if _contrast_instance_ok(z, labels):
                break
        grad = contrast.contrastive_loss_and_gradient(z, labels)[1]
        direction = rng.normal(size=z.shape)
        fd = (
            contrast.contrastive_loss_and_gradient(z + FD_STEP * direction, labels)[0]
            - contrast.contrastive_loss_and_gradient(z - FD_STEP * direction, labels)[0]
        ) / (2 * FD_STEP)
        analytic = float((grad * direction).sum())
        errs.append(abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6))
    worst = float(np.max(errs))
    return CheckResult("contrast_fd", worst < 1e-3, worst, 1e-3)


def check_model_fd(trials: int, seed: int) -> CheckResult:
    """Total-objective parameter gradients vs central finite differences,
    ``trials`` instances for each output activation."""
    rng = component_rng(seed, "check")
    errs = []
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

            def objective():
                z, _ = model.embed_forward(params, x)
                logits = model.classify(params, z)
                return (
                    losses.bce_loss(logits, labels)[0]
                    + lam * contrast.contrastive_loss_and_gradient(z, labels)[0]
                )

            z, cache = model.embed_forward(params, x)
            logits = model.classify(params, z)
            _, grad_logits = losses.bce_loss(logits, labels)
            grad_z = lam * contrast.contrastive_loss_and_gradient(z, labels)[1]
            grads = model.backward(params, cache, grad_logits, grad_z)

            for arr, g in zip(params.arrays(), params.views(grads)):
                fd = _central_differences(objective, arr)
                errs.append(np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-6))
    worst = float(np.max(errs))
    return CheckResult("model_fd", worst < 1e-3, worst, 1e-3)


def check_stack_inequality(trials: int, seed: int) -> CheckResult:
    """Row-stack nuclear-norm inequality: |[A;B;C]|_* <= |[A;C]|_* + |[B;C]|_*."""
    rng = component_rng(seed, "check")
    gaps = []
    violations = 0
    for _ in range(trials):
        d = int(rng.integers(1, 7))
        blocks = [rng.normal(size=(int(rng.integers(1, 7)), d)) for _ in range(3)]
        a, b, c = blocks
        lhs = linalg.nuclear_norm(np.vstack((a, b, c)))
        rhs = linalg.nuclear_norm(np.vstack((a, c))) + linalg.nuclear_norm(np.vstack((b, c)))
        gap = lhs - rhs
        gaps.append(gap)
        if not gap <= 1e-8:  # a NaN gap is a violation
            violations += 1
    return CheckResult(
        "stack_inequality",
        violations == 0,
        float(np.max(gaps)),
        1e-8,
        detail=f"{violations} violations in {trials} trials",
    )


def check_nonnegativity(trials: int, seed: int) -> CheckResult:
    """Contrastive loss >= 0 when every row has at least one positive label."""
    rng = component_rng(seed, "check")
    values = []
    violations = 0
    for _ in range(trials):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 7))
        c = int(rng.integers(1, 6))
        z = rng.normal(size=(n, d))
        labels = _labels_with_positive_rows(rng, n, c)
        value = contrast.contrastive_loss_and_gradient(z, labels)[0]
        values.append(value)
        if not value >= -1e-8:  # a NaN loss is a violation
            violations += 1
    return CheckResult(
        "loss_nonnegativity",
        violations == 0,
        float(np.min(values)),
        -1e-8,
        detail=f"{violations} violations in {trials} trials",
    )


def check_svd_reconstruction(trials: int, seed: int) -> CheckResult:
    """Reconstruction and orthonormality of the SVD."""
    rng = component_rng(seed, "check")
    errs = []
    for _ in range(trials):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 33))
        a = rng.normal(size=(m, n))
        u, s, v = linalg.svd(a)
        recon = np.linalg.norm(u * s @ v.T - a) / max(np.linalg.norm(a), 1e-300)
        r = s.size
        orth_u = np.abs(u.T @ u - np.eye(r)).max()
        orth_v = np.abs(v.T @ v - np.eye(r)).max()
        errs += (recon, orth_u, orth_v)
    worst = float(np.max(errs))
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


def check_trials(trials: int) -> None:
    """Zero trials would pass without checking anything."""
    check_count("trials", trials, 1)


def run_gradcheck(trials: int, seed: int) -> list[CheckResult]:
    check_trials(trials)
    return [
        check_subgradient_fd(trials, seed),
        check_contrast_fd(trials, seed + 1),
        check_model_fd(max(1, trials // 10), seed + 2),
    ]


def run_selftest(trials: int, seed: int) -> list[CheckResult]:
    """The gradcheck suite (which checks ``trials``) plus the property checks."""
    return run_gradcheck(trials, seed) + [
        check_stack_inequality(trials * 5, seed + 3),
        check_nonnegativity(trials * 5, seed + 4),
        check_svd_reconstruction(trials, seed + 5),
        check_correction_table(),
    ]
