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
then calls the unchecked kernels behind those functions on arrays it made
itself, with the same arithmetic in the same order: ``model._embed_forward``,
``model._classify``, ``losses._sigmoid``, ``contrast._correct``,
``losses._bce`` or ``losses._focal``, ``model._backward``,
``model._adam_step`` and ``model._ema_update``. A kernel takes and returns
what its public function does. Two guards stay on every step: the public
``contrast.contrastive_loss_and_gradient`` rejects a non-finite embedding
before any SVD, and a non-finite total loss raises with its epoch and batch.

``evaluate`` runs the network over a scored set in row blocks through the
public ``model.embed_forward``, ``model.classify`` and ``losses.sigmoid``,
and scores the whole set's probabilities once with ``metrics.report``. Its
memory is about one block of activations plus the ``n x C`` probabilities,
whatever the set's size; a validation split that fits in one block runs the
whole-array arithmetic.
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
from .seeding import check_count, check_range, check_seed, component_rng

# the most rows ``evaluate`` runs through the network at once
_EVAL_BLOCK_ROWS = 4096


def check_val_fraction(val_fraction) -> None:
    check_range("val_fraction", val_fraction, 0, 1, "[)")


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
        check_range("lambda_", self.lambda_, 0, math.inf, "[)")
        if not isinstance(self.use_contrast, (bool, np.bool_)):
            raise ValueError(f"use_contrast must be a bool, got {self.use_contrast!r}")
        if not isinstance(self.correction, CorrectionConfig):
            raise ValueError(f"correction must be a CorrectionConfig, got {self.correction!r}")
        if self.loss_kind not in ("bce", "focal"):
            raise ValueError(f"loss_kind must be 'bce' or 'focal', got {self.loss_kind!r}")
        check_count("epochs", self.epochs, 1)
        check_count("batch_size", self.batch_size, 2)
        check_val_fraction(self.val_fraction)
        if self.ema_decay is not None:
            model.check_decay(self.ema_decay)
        if self.layer_dims is not None:
            model.check_layer_dims(self.layer_dims)
            # a tuple of ints whatever sequence was given, e.g. a numpy array
            object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        check_seed(self.seed)
        check_range("lr", self.lr, 0, math.inf, "()")
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
    own arrays: ``probs`` is ``sigmoid(logits)`` and ``effective`` holds
    -1/+1 labels.

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
        cls_value, grad_logits = losses._focal(logits, pos, cfg.focal_gamma)
    else:
        cls_value, grad_logits = losses._bce(logits, pos, probs)
    return cls_value, c_value, grad_logits, grad_z


def split_dataset(ds: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset | None]:
    """Seed-stable split into train and held-out parts.

    Every part is a new ``Dataset`` built, and so checked, from the arrays
    ``ds`` holds now: ``Dataset`` is mutable, and an entry written into it
    after construction is caught here.
    """
    check_val_fraction(val_fraction)
    n_val = int(round(ds.n_samples * val_fraction))
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
    history = TrainHistory()
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        # one gather per epoch; each batch is a slice (a view) of it
        shuffled_features = train_ds.features[order]
        shuffled_observed = train_ds.observed[order]
        correcting = active and cfg.correction.gate_open(epoch)
        cls_sum = 0.0
        contrast_sum = 0.0
        corrected = 0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            x = shuffled_features[start:stop]
            observed = shuffled_observed[start:stop]

            cache = model._embed_forward(params, x)
            z = cache.activations[-1]
            logits = model._classify(params, z)
            probs = losses._sigmoid(logits)
            if correcting:
                effective = contrast._correct(observed, probs, cfg.correction.threshold)
                corrected += np.count_nonzero(effective != observed)
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
            grads = model._backward(params, cache, grad_logits, grad_z)
            model._adam_step(params, grads, state, cfg.lr)
            if ema is not None:
                model._ema_update(ema, params, cfg.ema_decay)

            cls_sum += cls_value * x.shape[0]
            contrast_sum += c_value
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
    """Metrics of the model's probabilities against the ground-truth labels.

    The network runs over the rows in blocks of near-equal size (bounds
    ``n * i // n_blocks``), each written into one ``n x C`` probability
    array that ``metrics.report`` scores once. Scoring therefore holds about
    one block's activations plus the probabilities, not every layer for
    every row. A set that fits in one block runs the whole-array arithmetic;
    BLAS may pick its kernel by the number of rows, so the probabilities of
    a larger set can differ from a one-pass forward in the last bits.
    """
    # checked whole, so a wrong width names the set's shape, not a block's
    model.check_input(params, ds.features)
    n = ds.n_samples
    n_blocks = math.ceil(n / _EVAL_BLOCK_ROWS)
    # the model's width, so a class-count mismatch reaches metrics.report's check
    probs = np.empty((n, params.n_classes))
    for i in range(n_blocks):
        lo, hi = n * i // n_blocks, n * (i + 1) // n_blocks
        z, cache = model.embed_forward(params, ds.features[lo:hi])
        probs[lo:hi] = losses.sigmoid(model.classify(params, z))
        del z, cache  # this block's activations go before the next block's
    return metrics.report(probs, ds.truth, threshold)
