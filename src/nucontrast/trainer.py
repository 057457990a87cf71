"""Minibatch training: classification loss plus weighted structure loss.

Per batch: embed, classify, correct the observed labels against the current
predictions (once the correction epoch gate opens), evaluate both loss terms
on the corrected labels, backpropagate, Adam step, optional EMA update. The
structure-loss path (correction included) is active only when the loss is
enabled with a positive weight, so a weight of 0 runs the exact
classification-only trajectory bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import contrast, losses, metrics, model
from .contrast import CorrectionConfig
from .data import Dataset
from .linalg import DEFAULT_SV_THRESHOLD
from .metrics import MetricsReport
from .model import ModelParams
from .seeding import component_rng


@dataclass
class TrainConfig:
    """Every knob of the training loop; defaults favor reproducibility."""

    lambda_: float = 1.0
    use_contrast: bool = True
    correction: CorrectionConfig = field(default_factory=CorrectionConfig)
    sv_threshold: float = DEFAULT_SV_THRESHOLD
    loss_kind: str = "bce"
    focal_gamma: float = 2.0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0
    ema_decay: float | None = None
    layer_dims: tuple[int, ...] | None = None  # full (F, ..., D); None = (F, 64, 32)
    output_activation: str = "softplus"
    val_fraction: float = 0.2

    def __post_init__(self):
        if not self.lambda_ >= 0:
            raise ValueError(f"lambda_ must be >= 0, got {self.lambda_!r}")
        if self.loss_kind not in ("bce", "focal"):
            raise ValueError(f"loss_kind must be 'bce' or 'focal', got {self.loss_kind!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction!r}")
        if self.ema_decay is not None and not 0.0 <= self.ema_decay < 1.0:
            raise ValueError(f"ema_decay must be in [0, 1), got {self.ema_decay!r}")
        if self.output_activation not in model.OUTPUT_ACTIVATIONS:
            raise ValueError(
                f"output_activation must be one of {model.OUTPUT_ACTIVATIONS}, "
                f"got {self.output_activation!r}"
            )

    def contrast_active(self) -> bool:
        return self.use_contrast and self.lambda_ > 0


@dataclass
class EpochStats:
    epoch: int
    cls_loss: float
    contrast_loss: float
    corrected: int
    val_report: MetricsReport | None


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_text(self) -> str:
        """Line-oriented text, one epoch per line, for external plotting."""
        lines = []
        for e in self.epochs:
            parts = [
                f"epoch {e.epoch}",
                f"cls_loss {e.cls_loss!r}",
                f"contrast_loss {e.contrast_loss!r}",
                f"corrected {e.corrected}",
            ]
            if e.val_report is not None:
                parts.append(f"map {e.val_report.map!r}")
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"


@dataclass
class TrainedModel:
    params: ModelParams
    ema_params: ModelParams | None = None


def _classification_loss(logits, labels, cfg: TrainConfig) -> losses.LossOutput:
    if cfg.loss_kind == "focal":
        return losses.focal_loss(logits, labels, cfg.focal_gamma)
    return losses.bce_loss(logits, labels)


def _batch_terms(logits, z, effective, cfg: TrainConfig):
    """(cls_value, contrast_value, grad_logits, grad_z or None)."""
    out = _classification_loss(logits, effective, cfg)
    if not cfg.contrast_active():
        return out.value, 0.0, out.grad_logits, None
    c_value, c_grad = contrast.contrastive_loss_and_gradient(
        z, effective, cfg.sv_threshold
    )
    return out.value, c_value, out.grad_logits, cfg.lambda_ * c_grad


def split_dataset(ds: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset | None]:
    """Seed-stable split into train and held-out parts."""
    if val_fraction <= 0.0:
        return ds, None
    n_val = int(round(ds.n_samples * val_fraction))
    if n_val == 0:
        return ds, None
    perm = component_rng(seed, "split").permutation(ds.n_samples)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    pick = lambda idx: Dataset(
        ds.features[idx], ds.truth[idx], ds.observed[idx], ds.class_names
    )
    return pick(train_idx), pick(val_idx)


def train(ds: Dataset, cfg: TrainConfig) -> tuple[TrainedModel, TrainHistory]:
    """Run the full training loop; deterministic for a fixed config and data."""
    train_ds, val_ds = split_dataset(ds, cfg.val_fraction, cfg.seed)
    n = train_ds.n_samples
    if cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds {n} training samples")
    dims = cfg.layer_dims or (train_ds.n_features, 64, 32)
    if dims[0] != train_ds.n_features:
        raise ValueError(
            f"layer_dims[0]={dims[0]} must equal the feature width {train_ds.n_features}"
        )

    params = model.init_params(
        dims,
        train_ds.n_classes,
        component_rng(cfg.seed, "init"),
        cfg.output_activation,
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
                effective = contrast.effective_labels(
                    observed, probs, epoch, cfg.correction
                )
            else:
                effective = observed
            cls_value, c_value, grad_logits, grad_z = _batch_terms(
                logits, z, effective, cfg
            )
            total = cls_value + cfg.lambda_ * c_value
            if not math.isfinite(total):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {n_batches}"
                )
            grads = model.backward(params, cache, grad_logits, grad_z)
            model.adam_step(
                params, grads, state, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps
            )
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
            EpochStats(
                epoch=epoch,
                cls_loss=cls_sum / n,
                contrast_loss=contrast_sum / n_batches,
                corrected=corrected,
                val_report=val_report,
            )
        )
    return TrainedModel(params, ema), history


def evaluate(params: ModelParams, ds: Dataset, threshold: float = 0.5) -> MetricsReport:
    """Metrics of the model's probabilities against the ground-truth labels."""
    z, _ = model.embed_forward(params, ds.features)
    probs = losses.sigmoid(model.classify(params, z))
    return metrics.report(probs, ds.truth, threshold)
