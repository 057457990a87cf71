"""Minibatch training: classification loss plus weighted structure loss.

Per batch: embed, classify, correct the observed labels against the current
predictions (once the correction epoch gate opens), evaluate both loss terms
on the corrected labels, backpropagate, Adam step, optional EMA update. The
structure-loss path (correction included) is active only when the loss is
enabled with a positive weight, so a weight of 0 runs the exact
classification-only trajectory bit for bit.

Inputs are checked where they enter, not on every step. A ``Dataset`` checks
its arrays and a ``TrainConfig`` its values when built; ``train`` rebuilds
the data it reads through ``Dataset`` once at its door (``split_dataset``),
which catches an entry written into the mutable dataset after construction;
and every public function of the package checks its own arguments. The step
then calls unchecked kernels (``losses._bce``, ``losses._focal``,
``contrast._correct``) on arrays it made itself, with the same arithmetic as
the public functions. Two guards stay on every step: the public
``contrast.contrastive_loss_and_gradient`` rejects a non-finite embedding
before any SVD, and a non-finite total loss raises with its epoch and batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import contrast, losses, metrics, model
from .contrast import CorrectionConfig
from .data import Dataset
from .linalg import DEFAULT_SV_THRESHOLD, check_sv_threshold
from .metrics import MetricsReport
from .model import ModelParams
from .seeding import check_count, check_seed, component_rng


@dataclass(frozen=True)
class TrainConfig:
    """Every knob of the training loop; defaults favor reproducibility.

    Frozen, so every value is checked once, at construction;
    ``dataclasses.replace`` builds a checked copy.
    """

    lambda_: float = 1.0
    use_contrast: bool = True
    correction: CorrectionConfig = field(default_factory=CorrectionConfig)
    sv_threshold: float = DEFAULT_SV_THRESHOLD
    loss_kind: str = "bce"
    focal_gamma: float = 2.0
    lr: float = 1e-4
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0
    ema_decay: float | None = None
    layer_dims: tuple[int, ...] | None = None  # full (F, ..., D); None = (F, 64, 32)
    output_activation: str = "softplus"
    val_fraction: float = 0.2

    def __post_init__(self):
        losses.check_finite_nonnegative("lambda_", self.lambda_)
        if self.loss_kind not in ("bce", "focal"):
            raise ValueError(f"loss_kind must be 'bce' or 'focal', got {self.loss_kind!r}")
        check_count("epochs", self.epochs, 1)
        check_count("batch_size", self.batch_size, 2)
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction!r}")
        if self.ema_decay is not None:
            model.check_decay(self.ema_decay)
        if self.layer_dims is not None:
            model.check_layer_dims(self.layer_dims)
            # a tuple of ints whatever sequence was given, e.g. a numpy array
            object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        check_seed(self.seed)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        check_sv_threshold(self.sv_threshold)
        losses.check_gamma(self.focal_gamma)
        model.check_activation(self.output_activation)

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


def _batch_terms(logits, probs, z, effective, cfg: TrainConfig):
    """(cls_value, contrast_value, grad_logits, grad_z or None) of a step's
    own arrays: ``probs`` is ``sigmoid(logits)`` (None when only focal loss
    reads the logits) and ``effective`` holds -1/+1 labels.

    The contrast term comes first, through the public
    ``contrast.contrastive_loss_and_gradient``: it rejects a non-finite
    ``z`` before any SVD or other term reads it. The classification loss
    runs its unchecked kernel.
    """
    c_value, grad_z = 0.0, None
    if cfg.contrast_active():
        c_value, c_grad = contrast.contrastive_loss_and_gradient(
            z, effective, cfg.sv_threshold
        )
        grad_z = cfg.lambda_ * c_grad
    pos = effective == 1
    if cfg.loss_kind == "focal":
        out = losses._focal(logits, pos, cfg.focal_gamma)
    else:
        out = losses._bce(logits, pos, probs)
    return out.value, c_value, out.grad_logits, grad_z


def split_dataset(ds: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset | None]:
    """Seed-stable split into train and held-out parts.

    Every part is a new ``Dataset`` built, and so checked, from the arrays
    ``ds`` holds now: ``Dataset`` is mutable, and an entry written into it
    after construction is caught here.
    """
    n_val = int(round(ds.n_samples * max(val_fraction, 0.0)))
    if n_val == 0:
        return Dataset(ds.features, ds.truth, ds.observed), None
    perm = component_rng(seed, "split").permutation(ds.n_samples)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    pick = lambda idx: Dataset(ds.features[idx], ds.truth[idx], ds.observed[idx])
    return pick(train_idx), pick(val_idx)


def train(ds: Dataset, cfg: TrainConfig) -> tuple[TrainedModel, TrainHistory]:
    """Run the full training loop; deterministic for a fixed config and data."""
    # the door: every array the steps read comes from a Dataset built here
    train_ds, val_ds = split_dataset(ds, cfg.val_fraction, cfg.seed)
    n = train_ds.n_samples
    if cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds {n} training samples")
    dims = cfg.layer_dims
    if dims is None:
        dims = (train_ds.n_features, 64, 32)
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

    active = cfg.contrast_active()
    needs_probs = active or cfg.loss_kind == "bce"
    history = TrainHistory()
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        # one gather per epoch; each batch is a slice (a view) of it
        shuffled_features = train_ds.features[order]
        shuffled_observed = train_ds.observed[order]
        correcting = active and epoch >= cfg.correction.start_epoch
        cls_sum = 0.0
        contrast_sum = 0.0
        corrected = 0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            x = shuffled_features[start:stop]
            observed = shuffled_observed[start:stop]

            z, cache = model.embed_forward(params, x)
            logits = model.classify(params, z)
            probs = losses.sigmoid(logits) if needs_probs else None
            if correcting:
                effective = contrast._correct(observed, probs, cfg.correction.threshold)
            else:
                effective = observed  # only read, never written
            cls_value, c_value, grad_logits, grad_z = _batch_terms(
                logits, probs, z, effective, cfg
            )
            total = cls_value + cfg.lambda_ * c_value
            if not math.isfinite(total):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {n_batches}"
                )
            grads = model.backward(params, cache, grad_logits, grad_z)
            model.adam_step(params, grads, state, cfg.lr)
            if ema is not None:
                model.ema_update(ema, params, cfg.ema_decay)

            cls_sum += cls_value * x.shape[0]
            contrast_sum += c_value
            corrected += np.count_nonzero(effective != observed)
            n_batches += 1

        val_report = None
        if val_ds is not None:
            val_report = evaluate(ema if ema is not None else params, val_ds)
        history.epochs.append(
            EpochStats(
                epoch=epoch,
                cls_loss=cls_sum / n,
                contrast_loss=contrast_sum / n_batches,
                corrected=int(corrected),
                val_report=val_report,
            )
        )
    return TrainedModel(params, ema), history


def evaluate(params: ModelParams, ds: Dataset, threshold: float = 0.5) -> MetricsReport:
    """Metrics of the model's probabilities against the ground-truth labels."""
    z, _ = model.embed_forward(params, ds.features)
    probs = losses.sigmoid(model.classify(params, z))
    return metrics.report(probs, ds.truth, threshold)
