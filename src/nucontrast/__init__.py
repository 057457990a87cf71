"""Contrastive embedding toolkit for multi-label learning with missing labels.

The embedding loss sums per-class nuclear norms of the batch embedding and
subtracts the whole-batch nuclear norm, pulling rows that share a label onto
a common low-rank subspace while keeping the batch as a whole well spread.
A label-correction step flips confidently predicted negatives to positives
so the loss is not poisoned by unannotated positives.

Of the paper's loss, only the low-rank label-structure term is implemented,
in the OLE form of Lezama et al. (arXiv:1712.01727); the label-wise
positive/negative contrastive term is not. The threshold correction
resembles the loss correction of Zhang et al. (arXiv:2112.07368). In the
acceptance setting it flips few labels (159 of 7169 hidden positives in 50
epochs on seed 0), and turning it off does not lower val mAP (0.8161 off,
0.8138 on, mean of seeds 0-2): the gain over the classification-only
baseline comes from the nuclear-norm term.
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
    contrastive_loss_and_gradient,
    correct_labels,
    effective_labels,
)
from .losses import bce_loss, focal_loss, sigmoid
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
from .trainer import TrainConfig, TrainHistory, TrainedModel, evaluate, train

__version__ = "0.1.0"
