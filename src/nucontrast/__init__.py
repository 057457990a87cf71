"""Contrastive embedding toolkit for multi-label learning with missing labels.

The embedding loss sums per-class nuclear norms of the batch embedding and
subtracts the whole-batch nuclear norm, pulling rows that share a label onto
a common low-rank subspace while keeping the batch as a whole well spread.
A label-correction step flips confidently predicted negatives to positives
so the loss is not poisoned by unannotated positives.
"""

from .linalg import (
    DimensionError,
    SvdResult,
    nuclear_norm,
    nuclear_subgradient,
    svd,
)
from .contrast import (
    CorrectionConfig,
    class_submatrix,
    contrastive_gradient,
    contrastive_loss,
    correct_labels,
    effective_labels,
)
from .losses import LossOutput, bce_loss, focal_loss, sigmoid
from .model import ModelParams, load_checkpoint, save_checkpoint
from .data import (
    Dataset,
    DatasetFormatError,
    MissingnessSpec,
    drop_labels,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .metrics import MetricsReport, average_precision, report
from .trainer import TrainConfig, TrainHistory, TrainedModel, evaluate, total_loss, train

__version__ = "0.1.0"
