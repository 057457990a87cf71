"""Synthetic correlated multi-label data, missing-label simulation, file I/O.

Labels use {-1, +1} throughout. A dataset carries the ground-truth labels and
an "observed" copy in which some true positives have been turned into -1
(the assumed-negative convention): missingness only ever hides positives.

The text format is deliberately dumb: a "N C F" header, N feature rows, N
truth label rows, N observed label rows, all space-separated, floats written
with shortest round-trip decimals. A load parses the feature block with one
numpy call and falls back to a per-line parser that names the bad line; a
save replaces the file atomically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .contrast import as_label_matrix
from .fileio import atomic_write
from .linalg import as_matrix
from .seeding import check_count, check_seed, component_rng


class DatasetFormatError(ValueError):
    """A dataset file could not be parsed; the message names the line."""


def _check_truth_rows(truth: np.ndarray) -> None:
    if not (truth == 1).any(axis=1).all():
        raise ValueError("every truth row needs at least one positive label")


@dataclass
class Dataset:
    features: np.ndarray          # N x F float64
    truth: np.ndarray             # N x C in {-1, +1}
    observed: np.ndarray          # N x C in {-1, +1}

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.truth = as_label_matrix(self.truth, "truth")
        self.observed = as_label_matrix(self.observed, "observed")
        n = self.features.shape[0]
        if self.truth.shape[0] != n or self.observed.shape != self.truth.shape:
            raise ValueError("features, truth and observed row counts differ")
        _check_truth_rows(self.truth)
        if ((self.observed == 1) & (self.truth == -1)).any():
            raise ValueError("observed positives must be a subset of truth positives")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        return self.truth.shape[1]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class MissingnessSpec:
    """How to hide positives: keep each with probability ``ratio`` (mode
    "keep", conditioned on at least one survivor per row; see
    ``drop_labels``) or keep exactly one uniformly chosen positive per row
    (mode "single"). ``ratio`` must lie in (0, 1] in either mode, so a
    value that "single" ignores is still never out of range."""

    mode: str
    ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("keep", "single"):
            raise ValueError(f"mode must be 'keep' or 'single', got {self.mode!r}")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"keep ratio must be in (0, 1], got {self.ratio}")
        check_seed(self.seed)


def generate_synthetic(
    n_samples: int,
    n_classes: int,
    n_features: int,
    n_groups: int,
    noise: float,
    seed: int,
) -> Dataset:
    """Correlated multi-label data with low-rank label structure.

    The classes form an implication chain in a random order (each class
    implies its predecessor, the way "grape" implies "fruit"), and each group
    owns the template closed under that chain: the nested prefix ending at
    the group's anchor class. Anchor depths are spread evenly, so templates
    range from a single label to most of the label set. A sample copies its
    group's template, flips non-anchor entries with a small probability
    (``min(noise, 0.5) / 10``, at most 5%), and gets features equal to the
    sum of the prototype vectors of its positive classes plus Gaussian noise
    of scale ``noise``. The anchor is never flipped, so every row keeps a
    positive.
    """
    check_count("n_samples", n_samples, 1)
    check_count("n_classes", n_classes, 1)
    check_count("n_features", n_features, 1)
    check_count("n_groups", n_groups, 1)
    if n_groups > n_classes:
        raise ValueError(f"n_groups must not exceed n_classes, got {n_groups=} {n_classes=}")
    if not 0.0 <= noise <= 4.0:
        raise ValueError(f"noise must be in [0, 4], got {noise!r}")
    rng = component_rng(seed, "data")

    chain = rng.permutation(n_classes)  # chain[j] implies chain[j-1] implies ...
    if n_groups == 1:
        depths = np.array([0])
    else:
        depths = np.round(np.linspace(0, n_classes - 1, n_groups)).astype(int)
    anchors = chain[depths]
    templates = np.full((n_groups, n_classes), -1, dtype=np.int8)
    for g, depth in enumerate(depths):
        templates[g, chain[: depth + 1]] = 1

    groups = rng.integers(0, n_groups, size=n_samples)
    truth = templates[groups].copy()
    flips = rng.random((n_samples, n_classes)) < min(noise, 0.5) / 10.0
    flips[np.arange(n_samples), anchors[groups]] = False  # anchors are stable
    truth[flips] *= -1

    prototypes = rng.normal(0.0, 1.0, size=(n_classes, n_features))
    positives = (truth == 1).astype(np.float64)
    features = positives @ prototypes + noise * rng.normal(
        0.0, 1.0, size=(n_samples, n_features)
    )
    return Dataset(features, truth, truth.copy())


def drop_labels(truth, spec: MissingnessSpec) -> np.ndarray:
    """Observed labels after hiding positives per ``spec``.

    Rows are processed in order with a generator seeded from ``spec.seed``,
    so the result is reproducible. In "keep" mode each positive of a row
    survives with probability ``spec.ratio``. When that first draw keeps
    nothing, one more draw comes from the same distribution conditioned on a
    nonempty survivor set: the first survivor is the row's j-th positive
    with probability proportional to (1 - ratio)**j, and each later positive
    survives independently with probability ``ratio``. That is exact, and it
    costs one draw where redrawing until nonempty costs about 1 / ratio.
    """
    truth = as_label_matrix(truth, "truth")
    _check_truth_rows(truth)
    rng = component_rng(spec.seed, "missing")
    observed = np.full_like(truth, -1)
    for i in range(truth.shape[0]):
        pos = np.flatnonzero(truth[i] == 1)
        if spec.mode == "single":
            observed[i, pos[rng.integers(pos.size)]] = 1
        else:
            keep = rng.random(pos.size) < spec.ratio
            if not keep.any():
                weights = np.exp(np.arange(pos.size) * np.log1p(-spec.ratio))
                first = rng.choice(pos.size, p=weights / weights.sum())
                keep[first] = True
                keep[first + 1:] = rng.random(pos.size - first - 1) < spec.ratio
            observed[i, pos[keep]] = 1
    return observed


def average_positives(labels) -> float:
    """Mean number of +1 entries per row."""
    labels = as_label_matrix(labels)
    return float((labels == 1).sum(axis=1).mean())


# 1024 rows grew a 2000-row save's peak RSS by 2 MB; 256 rows format as fast
_WRITE_ROWS = 256


def save_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` in the text format, replacing ``path`` atomically.

    Rows go through ``tolist()`` ``_WRITE_ROWS`` at a time, which keeps the
    per-value work in C without holding a Python float for every value of a
    large matrix at once.
    """
    with atomic_write(path) as fh:
        fh.write(f"{ds.n_samples} {ds.n_classes} {ds.n_features}\n")
        for block, fmt in ((ds.features, repr), (ds.truth, str), (ds.observed, str)):
            for start in range(0, block.shape[0], _WRITE_ROWS):
                rows = block[start:start + _WRITE_ROWS].tolist()
                fh.writelines(" ".join(map(fmt, row)) + "\n" for row in rows)


def _parse_labels(fields: list[str], lineno: int, n_classes: int) -> list[int]:
    if len(fields) != n_classes:
        raise DatasetFormatError(
            f"line {lineno}: expected {n_classes} labels, got {len(fields)}"
        )
    out = []
    for f in fields:
        try:
            value = int(f)
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: bad label {f!r}") from None
        if value not in (-1, 1):
            raise DatasetFormatError(f"line {lineno}: label must be -1 or 1, got {value}")
        out.append(value)
    return out


def _parse_features(lines: list[str], n_features: int) -> np.ndarray:
    """The feature block (file lines 2 .. N+1) as an N x F float64 array.

    One ``np.loadtxt`` call parses a well-formed block; it reads each token
    with the same correctly rounded routine as ``float()``. If it raises or
    warns, or returns another shape (it skips blank lines), the per-line
    loop below runs instead: it names the first bad line, and it accepts
    the few tokens that ``float()`` reads and loadtxt does not, such as
    ``1_0``.
    """
    n = len(lines)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            features = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        if features.shape == (n, n_features):
            return features
    except Exception:
        pass

    features = np.empty((n, n_features))
    for i in range(n):
        fields = lines[i].split()
        if len(fields) != n_features:
            raise DatasetFormatError(
                f"line {2 + i}: expected {n_features} features, got {len(fields)}"
            )
        try:
            features[i] = [float(x) for x in fields]
        except ValueError:
            raise DatasetFormatError(f"line {2 + i}: bad feature value") from None
    return features


def _parse_label_block(
    lines: list[str], first_lineno: int, n_classes: int
) -> tuple[np.ndarray, list[int]]:
    """Distinct label rows and, per line, the index of its row.

    ``_parse_labels`` runs once per distinct line text, in file order, so
    the first bad line is the one an error names.
    """
    index: dict[str, int] = {}
    rows = []
    order = []
    for lineno, line in enumerate(lines, first_lineno):
        k = index.get(line)
        if k is None:
            k = index[line] = len(rows)
            rows.append(_parse_labels(line.split(), lineno, n_classes))
        order.append(k)
    return np.array(rows, dtype=np.int8), order


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError("line 1: empty file")
    head = lines[0].split()
    try:
        n, c, f = (int(x) for x in head)
    except ValueError:
        raise DatasetFormatError("line 1: header must be 'N C F'") from None
    if len(head) != 3 or min(n, c, f) < 1:
        raise DatasetFormatError("line 1: header must be three positive ints 'N C F'")
    if len(lines) != 1 + 3 * n:
        raise DatasetFormatError(
            f"expected {1 + 3 * n} lines for N={n}, found {len(lines)}"
        )

    features = _parse_features(lines[1:1 + n], f)
    table, order = _parse_label_block(lines[1 + n:], 2 + n, c)
    truth = table[order[:n]]
    observed = table[order[n:]]
    try:
        return Dataset(features, truth, observed)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from None
