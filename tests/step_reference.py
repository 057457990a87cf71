"""Reference forms of the training-step functions, written the plain way.

The library computes the same values with fewer numpy passes: a boolean
label mask instead of float labels, in-place adds, and one batch gather per
epoch. Every rewrite rounds exactly as the form here, so the tests compare
the two with ``tobytes()``, not a tolerance.
"""

import math

import numpy as np

from nucontrast import contrast, losses, model
from nucontrast.seeding import component_rng
from nucontrast.trainer import (
    EpochStats,
    TrainedModel,
    TrainHistory,
    evaluate,
    split_dataset,
)


def reference_bce_loss(logits, labels):
    """(value, grad) from float labels: margins, softplus, .mean(), (y + 1) / 2."""
    y = np.asarray(labels).astype(np.float64)
    margins = y * logits
    value = float(np.logaddexp(0.0, -margins).mean())
    target = (y + 1.0) / 2.0
    grad = (losses.sigmoid(logits) - target) / logits.size
    return value, grad


def reference_correct_labels(observed, probs, threshold):
    corrected = contrast.as_label_matrix(observed, "observed").copy()
    corrected[probs >= threshold] = 1
    return corrected


def reference_embed_forward(params, x):
    x = np.asarray(x, dtype=np.float64)
    acts = []
    a = x
    prenorm = None
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = a @ w + b
        if i != last:
            a = np.tanh(h)
        elif params.output_activation in ("softplus", "softplus_unit"):
            a = np.logaddexp(0.0, h)
            if params.output_activation == "softplus_unit":
                prenorm = a
                a = a / np.linalg.norm(a, axis=1, keepdims=True)
        else:
            a = h
        acts.append(a)
    return a, model.ForwardCache(x, acts, prenorm)


def reference_backward(params, cache, grad_logits, grad_z=None):
    """Per-array gradients, in ``params.arrays()`` order."""
    z = cache.activations[-1]
    n_layers = len(params.weights)
    out = [None] * (2 * n_layers + 2)
    out[-2] = z.T @ grad_logits
    out[-1] = grad_logits.sum(axis=0)
    g = grad_logits @ params.classifier_weight.T
    if grad_z is not None:
        g = g + grad_z
    last = n_layers - 1
    for i in range(last, -1, -1):
        if i != last:
            g = g * (1.0 - cache.activations[i] ** 2)
        else:
            a = cache.activations[i]
            if params.output_activation == "softplus_unit":
                norms = np.linalg.norm(cache.prenorm, axis=1, keepdims=True)
                z = a
                g = (g - z * (z * g).sum(axis=1, keepdims=True)) / norms
                g = g * -np.expm1(-cache.prenorm)
            elif params.output_activation == "softplus":
                g = g * -np.expm1(-a)
        prev = cache.x if i == 0 else cache.activations[i - 1]
        out[2 * i] = prev.T @ g
        out[2 * i + 1] = g.sum(axis=0)
        if i > 0:
            g = g @ params.weights[i].T
    return out


def reference_train(ds, cfg):
    """The training loop with a fancy-indexed gather of every batch, through
    the public functions, which check every argument on every step."""
    train_ds, val_ds = split_dataset(ds, cfg.val_fraction, cfg.seed)
    n = train_ds.n_samples
    dims = cfg.layer_dims or (train_ds.n_features, 64, 32)
    params = model.init_params(
        dims, train_ds.n_classes, component_rng(cfg.seed, "init"), cfg.output_activation
    )
    ema = params.copy() if cfg.ema_decay is not None else None
    state = model.init_adam(params)
    shuffle_rng = component_rng(cfg.seed, "shuffle")
    history = TrainHistory()
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        cls_sum = 0.0
        contrast_sum = 0.0
        corrected = 0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x = train_ds.features[batch]
            observed = train_ds.observed[batch]
            z, cache = model.embed_forward(params, x)
            logits = model.classify(params, z)
            if cfg.contrast_active():
                probs = losses.sigmoid(logits)
                effective = contrast.effective_labels(observed, probs, epoch, cfg.correction)
            else:
                effective = observed
            if cfg.loss_kind == "focal":
                cls_value, grad_logits = losses.focal_loss(logits, effective, cfg.focal_gamma)
            else:
                cls_value, grad_logits = losses.bce_loss(logits, effective)
            c_value, grad_z = 0.0, None
            if cfg.contrast_active():
                c_value, c_grad = contrast.contrastive_loss_and_gradient(
                    z, effective, cfg.sv_threshold
                )
                grad_z = cfg.lambda_ * c_grad
            assert math.isfinite(cls_value + cfg.lambda_ * c_value)
            grads = model.backward(params, cache, grad_logits, grad_z)
            model.adam_step(params, grads, state, cfg.lr)
            if ema is not None:
                model.ema_update(ema, params, cfg.ema_decay)
            cls_sum += cls_value * batch.size
            contrast_sum += c_value
            corrected += int((effective != observed).sum())
            n_batches += 1
        val_report = None
        if val_ds is not None:
            val_report = evaluate(ema if ema is not None else params, val_ds)
        history.epochs.append(
            EpochStats(epoch, cls_sum / n, contrast_sum / n_batches, corrected, val_report)
        )
    return TrainedModel(params, ema), history
