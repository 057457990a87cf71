"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins. Every oracle here is independent of the library
path it checks: Jacobi singular values (the library's SVD is LAPACK), central
finite differences, brute-force counting, or byte-level file comparison.
"""

import time

import numpy as np
import pytest

from jacobi_oracle import jacobi_singular_values
from nucontrast import contrast, linalg, losses, metrics, model, trainer
from nucontrast.data import Dataset, MissingnessSpec, drop_labels, generate_synthetic
from nucontrast.seeding import component_rng


def spectrum_ok(a, margin):
    if a.shape[0] == 0:
        return True
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0:
        return False
    rel = s / s[0]
    if rel[-1] < margin:
        return False
    return len(s) == 1 or (-np.diff(rel)).min() > margin


def labels_with_positive_rows(rng, n, c, p=0.4):
    labels = np.where(rng.random((n, c)) < p, 1, -1).astype(np.int8)
    for i in range(n):
        if not (labels[i] == 1).any():
            labels[i, rng.integers(c)] = 1
    return labels


def test_criterion_1_svd_correctness():
    rng = np.random.default_rng(101)
    start = time.time()
    worst_recon = worst_orth = worst_nn = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 33))
        a = rng.normal(size=(m, n))
        u, s, v = linalg.svd(a)
        scale = max(np.linalg.norm(a), 1e-300)
        worst_recon = max(worst_recon, np.linalg.norm(u * s @ v.T - a) / scale)
        r = s.size
        worst_orth = max(
            worst_orth,
            np.abs(u.T @ u - np.eye(r)).max(),
            np.abs(v.T @ v - np.eye(r)).max(),
        )
        s_ref = jacobi_singular_values(a).sum()
        worst_nn = max(worst_nn, abs(linalg.nuclear_norm(a) - s_ref) / max(s_ref, 1.0))
    elapsed = time.time() - start
    ok = worst_recon < 1e-9 and worst_orth < 1e-9 and worst_nn < 1e-9 and elapsed < 30
    print(
        f"CRITERION 1 {'PASS' if ok else 'FAIL'}: 1000 SVDs, recon {worst_recon:.2e}, "
        f"orth {worst_orth:.2e}, nuclear vs oracle {worst_nn:.2e}, {elapsed:.1f}s"
    )
    assert worst_recon < 1e-9
    assert worst_orth < 1e-9
    assert worst_nn < 1e-9
    assert elapsed < 30


def test_criterion_2_subgradient_finite_differences():
    rng = np.random.default_rng(102)
    start = time.time()
    step = 1e-5
    worst = 0.0
    for _ in range(200):
        while True:
            a = rng.normal(size=(int(rng.integers(2, 8)), int(rng.integers(2, 7))))
            if spectrum_ok(a, 0.05):
                break
        analytic = linalg.nuclear_subgradient(a)
        fd = np.zeros_like(a)
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                hi = a.copy()
                lo = a.copy()
                hi[i, j] += step
                lo[i, j] -= step
                fd[i, j] = (linalg.nuclear_norm(hi) - linalg.nuclear_norm(lo)) / (2 * step)
        worst = max(worst, np.abs(analytic - fd).max() / np.abs(fd).max())
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 30
    print(
        f"CRITERION 2 {'PASS' if ok else 'FAIL'}: 200 matrices, max rel err {worst:.2e}, "
        f"{elapsed:.1f}s"
    )
    assert worst < 1e-4
    assert elapsed < 30


def test_criterion_3_stack_inequality():
    rng = np.random.default_rng(103)
    violations = 0
    worst = -np.inf
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        a, b, c = (rng.normal(size=(int(rng.integers(1, 7)), d)) for _ in range(3))
        lhs = linalg.nuclear_norm(np.vstack((a, b, c)))
        rhs = linalg.nuclear_norm(np.vstack((a, c))) + linalg.nuclear_norm(np.vstack((b, c)))
        worst = max(worst, lhs - rhs)
        violations += lhs > rhs + 1e-8
    print(
        f"CRITERION 3 {'PASS' if violations == 0 else 'FAIL'}: 1000 stacked triples, "
        f"{violations} violations, worst slack {worst:.2e}"
    )
    assert violations == 0


def test_criterion_4_loss_nonnegativity():
    rng = np.random.default_rng(104)
    violations = 0
    worst = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 7))
        c = int(rng.integers(1, 6))
        z = rng.normal(size=(n, d))
        labels = labels_with_positive_rows(rng, n, c)
        value = contrast.contrastive_loss(z, labels)
        worst = min(worst, value)
        violations += value < -1e-8
    print(
        f"CRITERION 4 {'PASS' if violations == 0 else 'FAIL'}: 1000 instances, "
        f"{violations} violations, min loss {worst:.2e}"
    )
    assert violations == 0


def test_criterion_5_end_to_end_gradients():
    rng = component_rng(105, "check")
    margin = 0.002
    step = 1e-5
    draws = resamples = 0
    worst = 0.0
    for trial in range(50):
        activation = "softplus" if trial % 2 else "linear"
        while True:
            draws += 1
            params = model.init_params((6, 8, 4), 3, rng, activation)
            for arr in params.arrays():
                arr += 0.2 * rng.normal(size=arr.shape)
            x = rng.normal(size=(4, 6))
            labels = labels_with_positive_rows(rng, 4, 3)
            z, _ = model.embed_forward(params, x)
            if spectrum_ok(z, margin) and all(
                spectrum_ok(z[labels[:, k] == 1], margin) for k in range(3)
            ):
                break
            resamples += 1

        def objective(p):
            zz, _ = model.embed_forward(p, x)
            logits = model.classify(p, zz)
            return losses.bce_loss(logits, labels).value + contrast.contrastive_loss(
                zz, labels
            )

        z, cache = model.embed_forward(params, x)
        logits = model.classify(params, z)
        grad_logits = losses.bce_loss(logits, labels).grad_logits
        grad_z = contrast.contrastive_gradient(z, labels)
        grads = model.backward(params, cache, grad_logits, grad_z)
        for arr, g in zip(params.arrays(), params.views(grads)):
            flat = arr.ravel()
            fd = np.zeros_like(flat)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                hi = objective(params)
                flat[idx] = orig - step
                lo = objective(params)
                flat[idx] = orig
                fd[idx] = (hi - lo) / (2 * step)
            worst = max(worst, np.abs(g.ravel() - fd).max() / max(np.abs(fd).max(), 1e-6))
    rate = resamples / draws
    ok = worst < 1e-3 and rate < 0.10
    print(
        f"CRITERION 5 {'PASS' if ok else 'FAIL'}: 50 models, max rel err {worst:.2e}, "
        f"resample rate {rate:.1%}"
    )
    assert worst < 1e-3
    assert rate < 0.10


def test_criterion_6_correction_truth_table():
    cfg = contrast.CorrectionConfig(threshold=0.6, start_epoch=2)
    failures = []
    for observed in (-1, 1):
        for prob, above in ((0.9, True), (0.3, False)):
            for epoch, gated in ((1, False), (2, True)):
                got = contrast.effective_labels(
                    np.array([[observed]]), np.array([[prob]]), epoch, cfg
                )[0, 0]
                want = 1 if (gated and above) else observed
                if got != want:
                    failures.append((observed, prob, epoch, got, want))
    print(
        f"CRITERION 6 {'PASS' if not failures else 'FAIL'}: 8/8 correction cells"
        + (f", failures {failures}" if failures else "")
    )
    assert not failures


def test_criterion_7_metrics_oracle():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        probs = rng.random((50, 8))
        truth = np.where(rng.random((50, 8)) < 0.35, 1, -1)
        truth[0] = 1  # every class evaluable
        rep = metrics.report(probs, truth)

        # independent brute-force implementation
        per_class_p, per_class_r, per_class_ap = [], [], []
        for k in range(8):
            pos = [i for i in range(50) if truth[i, k] == 1]
            pred = [i for i in range(50) if probs[i, k] >= 0.5]
            tp = len([i for i in pred if truth[i, k] == 1])
            per_class_p.append(tp / len(pred) if pred else 0.0)
            per_class_r.append(tp / len(pos))
            order = sorted(range(50), key=lambda i: (-probs[i, k], i))
            hits, ap = 0, 0.0
            for rank, i in enumerate(order, start=1):
                if truth[i, k] == 1:
                    hits += 1
                    ap += hits / rank
            per_class_ap.append(ap / len(pos))
        cp = sum(per_class_p) / 8
        cr = sum(per_class_r) / 8
        tp = sum(
            1 for i in range(50) for k in range(8)
            if probs[i, k] >= 0.5 and truth[i, k] == 1
        )
        npred = int((probs >= 0.5).sum())
        npos = int((truth == 1).sum())
        op = tp / npred if npred else 0.0
        orr = tp / npos if npos else 0.0
        f1 = lambda p, r: 2 * p * r / (p + r) if p + r > 0 else 0.0
        want = (sum(per_class_ap) / 8, cp, cr, f1(cp, cr), op, orr, f1(op, orr))
        got = (rep.map, rep.cp, rep.cr, rep.cf1, rep.op, rep.or_, rep.of1)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        worst = max(worst, np.abs(rep.per_class_ap - per_class_ap).max())
    ok = worst < 1e-12
    print(f"CRITERION 7 {'PASS' if ok else 'FAIL'}: 100 reports, max |diff| {worst:.2e}")
    assert worst < 1e-12


def test_criterion_8_missing_label_regimes():
    ds = generate_synthetic(10000, 20, 8, 10, 0.5, seed=108)
    single = drop_labels(ds.truth, MissingnessSpec("single", seed=108))
    avg = float((single == 1).sum(axis=1).mean())
    fractions = {}
    for rho in (0.75, 0.40):
        observed = drop_labels(ds.truth, MissingnessSpec("keep", rho, seed=108))
        fractions[rho] = (observed == 1).sum() / (ds.truth == 1).sum()
    ok = avg == 1.0 and all(abs(fractions[r] - r) < 0.02 for r in fractions)
    print(
        f"CRITERION 8 {'PASS' if ok else 'FAIL'}: single avg {avg}, "
        f"keep 0.75 -> {fractions[0.75]:.4f}, keep 0.40 -> {fractions[0.40]:.4f}"
    )
    assert avg == 1.0
    assert abs(fractions[0.75] - 0.75) < 0.02
    assert abs(fractions[0.40] - 0.40) < 0.02


# --- criteria 9 and 10: the paired-seed training experiment ------------------

SEEDS = (0, 1, 2, 3, 4)


def experiment_dataset(seed):
    ds = generate_synthetic(2000, 10, 32, 6, 3.0, seed=seed)
    observed = drop_labels(ds.truth, MissingnessSpec("single", seed=seed))
    return Dataset(ds.features, ds.truth, observed)


def experiment_config(seed, **overrides):
    kw = dict(
        lambda_=1.0,
        correction=contrast.CorrectionConfig(threshold=0.6, start_epoch=1),
        loss_kind="bce",
        epochs=50,
        batch_size=2,
        lr=1e-3,
        layer_dims=(32, 64, 16),
        ema_decay=0.999,
        seed=seed,
    )
    kw.update(overrides)
    return trainer.TrainConfig(**kw)


def run_experiment():
    """Train the paired arms for every seed; returns maps and artifacts."""
    results = {"with": [], "without": [], "checkpoints": {}, "reports": {}}
    for seed in SEEDS:
        ds = experiment_dataset(seed)
        for arm, overrides in (("with", {}), ("without", {"use_contrast": False})):
            trained, history = trainer.train(ds, experiment_config(seed, **overrides))
            rep = history.epochs[-1].val_report
            results[arm].append(rep.map)
            results["checkpoints"][(arm, seed)] = model.checkpoint_text(
                trained.params, trained.ema_params
            )
            results["reports"][(arm, seed)] = rep.to_text()
    return results


@pytest.fixture(scope="module")
def paired_runs():
    start = time.time()
    results = run_experiment()
    results["elapsed"] = time.time() - start
    return results


def test_criterion_9_directional_improvement(paired_runs, tmp_path):
    with_mean = float(np.mean(paired_runs["with"]))
    without_mean = float(np.mean(paired_runs["without"]))

    # lambda = 0 must reproduce the classification-only run bit for bit
    ds = experiment_dataset(SEEDS[0])
    short = dict(epochs=3)  # identity holds per step; a prefix suffices
    zero, hz = trainer.train(ds, experiment_config(SEEDS[0], lambda_=0.0, **short))
    off, ho = trainer.train(
        ds, experiment_config(SEEDS[0], use_contrast=False, **short)
    )
    a, b = tmp_path / "zero.txt", tmp_path / "off.txt"
    model.save_checkpoint(a, zero.params, zero.ema_params)
    model.save_checkpoint(b, off.params, off.ema_params)
    ablation_identical = a.read_bytes() == b.read_bytes() and hz.to_text() == ho.to_text()

    ok = with_mean > without_mean and ablation_identical and paired_runs["elapsed"] < 600
    per_seed = ", ".join(
        f"seed{s} {w:.4f}/{wo:.4f}"
        for s, w, wo in zip(SEEDS, paired_runs["with"], paired_runs["without"])
    )
    print(
        f"CRITERION 9 {'PASS' if ok else 'FAIL'}: mean mAP with contrast "
        f"{with_mean:.4f} vs without {without_mean:.4f} "
        f"(margin {with_mean - without_mean:+.4f}; {per_seed}); "
        f"lambda-0 ablation bit-identical: {ablation_identical}; "
        f"{paired_runs['elapsed']:.0f}s"
    )
    assert with_mean > without_mean
    assert ablation_identical
    assert paired_runs["elapsed"] < 600


def test_criterion_10_determinism(paired_runs):
    rerun = run_experiment()
    same_ckpt = all(
        rerun["checkpoints"][key] == paired_runs["checkpoints"][key]
        for key in paired_runs["checkpoints"]
    )
    same_reports = all(
        rerun["reports"][key] == paired_runs["reports"][key]
        for key in paired_runs["reports"]
    )
    print(
        f"CRITERION 10 {'PASS' if same_ckpt and same_reports else 'FAIL'}: "
        f"rerun checkpoints identical: {same_ckpt}; reports identical: {same_reports}"
    )
    assert same_ckpt
    assert same_reports
