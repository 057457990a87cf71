"""Synthetic correlated multi-label data, missing-label simulation, file I/O.

Labels use {-1, +1} throughout. A dataset carries the ground-truth labels and
an "observed" copy in which some true positives have been turned into -1
(the assumed-negative convention): missingness only ever hides positives.

The text format is deliberately dumb: a "N C F" header, N feature rows, N
truth label rows, N observed label rows, all space-separated, floats written
with shortest round-trip decimals. A load reads the file a chunk at a time
and parses the feature block a block of lines per numpy call, falling back
to a per-line parser that names the bad line, so its peak memory stays near
the size of the arrays it returns; a save formats each distinct label row
once and replaces the file atomically.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .contrast import as_label_matrix
from .fileio import atomic_write
from .linalg import as_matrix
from .seeding import check_count, check_real, check_seed, component_rng


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
        check_real("keep ratio", self.ratio)
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
    check_real("noise", noise)
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
    positives = truth == 1
    if spec.mode == "single":
        # one draw per row in row order, as a loop of rng.integers(count) makes
        counts = positives.sum(axis=1)
        cols = np.nonzero(positives)[1]  # row-major: each row's positives in a run
        picks = counts.cumsum() - counts + rng.integers(counts)
        observed[np.arange(truth.shape[0]), cols[picks]] = 1
        return observed
    for i in range(truth.shape[0]):
        pos = np.flatnonzero(positives[i])
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

    Feature rows go through ``tolist()`` ``_WRITE_ROWS`` at a time, which
    keeps the per-value work in C without holding a Python float for every
    value of a large matrix at once. A label row is formatted once per
    distinct row, keyed by its bytes, the way ``_parse_label_block`` parses
    each distinct line once.
    """
    with atomic_write(path) as fh:
        fh.write(f"{ds.n_samples} {ds.n_classes} {ds.n_features}\n")
        for start in range(0, ds.n_samples, _WRITE_ROWS):
            rows = ds.features[start:start + _WRITE_ROWS].tolist()
            fh.writelines(" ".join(map(repr, row)) + "\n" for row in rows)
        for block in (ds.truth, ds.observed):
            lines: dict[bytes, str] = {}  # one per block: its rows share a dtype
            fh.writelines(_label_line(lines, row) for row in block)


def _label_line(lines: dict[bytes, str], row: np.ndarray) -> str:
    """The text line of a label row, formatted on its first sight only."""
    key = row.tobytes()
    line = lines.get(key)
    if line is None:
        line = lines[key] = " ".join(map(str, row.tolist())) + "\n"
    return line


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


def _parse_features(lines: list[str], n_features: int, first_lineno: int) -> np.ndarray:
    """A block of feature lines, the first at file line ``first_lineno``,
    as a float64 array of one row per line.

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

    rows = []  # no array sized from the header before a line has that many values
    for lineno, line in enumerate(lines, first_lineno):
        fields = line.split()
        if len(fields) != n_features:
            raise DatasetFormatError(
                f"line {lineno}: expected {n_features} features, got {len(fields)}"
            )
        try:
            rows.append([float(x) for x in fields])
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: bad feature value") from None
    return np.array(rows, dtype=np.float64)


def _parse_label_block(
    lines, first_lineno: int, n_classes: int
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


# 64 Ki characters per read: 1 Mi left score-io's peak RSS 4 MB higher; 16 Ki gained nothing
_READ_CHARS = 64 * 1024
# feature lines per np.loadtxt call: 128 to 4096 parse as fast, and 4096 nearly doubles the peak
_READ_ROWS = 256

# what errors="surrogateescape" decodes a byte that is not UTF-8 to
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class _LineReader:
    """The lines of a text file, ``_READ_CHARS`` characters at a time.

    ``lines`` yields exactly what ``str.splitlines`` gives for the whole
    text. The file must be open with universal newlines, which turn every
    ``\\r`` into ``\\n``, so no line break spans two characters and a chunk
    may end anywhere: the partial last line of a chunk is carried into the
    next. Open it with ``errors="surrogateescape"`` as well: ``undecodable``
    then holds the line number and the byte of the first line that is not
    UTF-8, and ``count`` the number of lines read so far.
    """

    def __init__(self, fh):
        self.count = 0
        self.undecodable: tuple[int, int] | None = None
        self.lines = self._read(fh)

    def _read(self, fh):
        carry = ""
        while True:
            chunk = fh.read(_READ_CHARS)
            text = carry + chunk
            lines = text.splitlines()
            # the text ends inside a line unless its last character is a break
            carry = lines.pop() if chunk and text[-1:].splitlines() != [""] else ""
            if self.undecodable is None and not text.isascii():
                self._find_undecodable(lines)
            self.count += len(lines)
            yield from lines
            if not chunk:
                return

    def _find_undecodable(self, lines: list[str]) -> None:
        for lineno, line in enumerate(lines, self.count + 1):
            bad = _UNDECODABLE.search(line)
            if bad:
                self.undecodable = (lineno, ord(bad.group()) - 0xDC00)
                return


def _parse_header(line: str | None) -> tuple[int, int, int]:
    if line is None:
        raise DatasetFormatError("line 1: empty file")
    head = line.split()
    try:
        n, c, f = (int(x) for x in head)
    except ValueError:
        raise DatasetFormatError("line 1: header must be 'N C F'") from None
    if len(head) != 3 or min(n, c, f) < 1:
        raise DatasetFormatError("line 1: header must be three positive ints 'N C F'")
    return n, c, f


def _parse_body(lines, n: int, c: int, f: int, file_bytes: int):
    """The feature array (None if the file is too small to hold it), the
    distinct label rows and the row index of each label line.

    A file that ends early gives short results; the caller's line count
    check refuses them.
    """
    # a valid file spends at least two characters on each feature value, so
    # a header that promises more than the file holds is refused later, and
    # allocating for it could fail
    features = np.empty((n, f)) if 2 * n * f <= file_bytes else None
    for start in range(0, n, _READ_ROWS):
        block = list(islice(lines, min(_READ_ROWS, n - start)))
        if not block:
            break
        rows = _parse_features(block, f, 2 + start)
        if features is not None:
            features[start:start + len(block)] = rows
    table, order = _parse_label_block(islice(lines, 2 * n), 2 + n, c)
    return features, table, order


def load_dataset(path) -> Dataset:
    """Read a dataset file in the text format that ``save_dataset`` writes.

    The text is read ``_READ_CHARS`` characters at a time and the feature
    block parsed ``_READ_ROWS`` lines at a time, so no copy of the whole
    text or list of all its lines is ever held: a 20,000 x 32 file peaks
    under twice the bytes of the arrays returned. A fault stops the parse
    but not the read. The error raised is the first that applies of: a
    line that is not UTF-8, an empty file, a bad header, a line count that
    does not match the header, and the first bad line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        reader = _LineReader(fh)
        lines = reader.lines
        n = fault = None
        try:
            n, c, f = _parse_header(next(lines, None))
            features, table, order = _parse_body(lines, n, c, f, os.fstat(fh.fileno()).st_size)
        except DatasetFormatError as exc:
            fault = exc
        for _ in lines:  # a later line that is not UTF-8, or the line count, outranks a fault
            pass
    if reader.undecodable is not None:
        lineno, byte = reader.undecodable
        raise DatasetFormatError(f"line {lineno}: not UTF-8 text (byte 0x{byte:02x})")
    if n is not None and reader.count != 1 + 3 * n:
        raise DatasetFormatError(
            f"expected {1 + 3 * n} lines for N={n}, found {reader.count}"
        )
    if fault is not None:
        raise fault
    if features is None:
        raise DatasetFormatError("the file grew while it was read")

    truth = table[order[:n]]
    observed = table[order[n:]]
    try:
        return Dataset(features, truth, observed)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from None
