"""Dataset and checkpoint text I/O: pinned bytes, bit-exact round trips, the
numpy fast path and the chunked reader against the whole-file per-line
parser, the two-core writer against the one-core one, memory, and atomic
writes."""

import hashlib
import os
import signal
import tracemalloc

import numpy as np
import pytest

from nucontrast import data, model
from nucontrast.data import (
    Dataset,
    DatasetFormatError,
    MissingnessSpec,
    drop_labels,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from nucontrast.fileio import atomic_write
from nucontrast.model import checkpoint_text, init_params, load_checkpoint, save_checkpoint
from nucontrast.seeding import component_rng

EDGE_VALUES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    -2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e16,
    -1e16,
]


def random_finite(rng, size):
    """Finite float64 values from uniformly random bit patterns, edge values first."""
    bits = rng.integers(0, 2**64, size=4 * size, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = np.concatenate([EDGE_VALUES, values[np.isfinite(values)]])
    return values[:size]


def reference_parse_labels(fields, lineno, n_classes):
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


def reference_load_dataset(path):
    """The per-line loader that the numpy parse replaced, kept as a reference."""
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

    features = np.empty((n, f))
    for i in range(n):
        fields = lines[1 + i].split()
        if len(fields) != f:
            raise DatasetFormatError(
                f"line {2 + i}: expected {f} features, got {len(fields)}"
            )
        try:
            features[i] = [float(x) for x in fields]
        except ValueError:
            raise DatasetFormatError(f"line {2 + i}: bad feature value") from None

    truth = np.array(
        [reference_parse_labels(lines[1 + n + i].split(), 2 + n + i, c) for i in range(n)],
        dtype=np.int8,
    )
    observed = np.array(
        [reference_parse_labels(lines[1 + 2 * n + i].split(), 2 + 2 * n + i, c)
         for i in range(n)],
        dtype=np.int8,
    )
    try:
        return Dataset(features, truth, observed)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from None


def reference_save_dataset(ds, path):
    """The writer that formatted every label row, kept as a reference."""
    with atomic_write(path) as fh:
        fh.write(f"{ds.n_samples} {ds.n_classes} {ds.n_features}\n")
        for block, fmt in ((ds.features, repr), (ds.truth, str), (ds.observed, str)):
            for row in block.tolist():
                fh.write(" ".join(map(fmt, row)) + "\n")


def outcome(loader, path):
    try:
        ds = loader(path)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    return ("loaded",) + tuple(
        (a.dtype.str, a.shape, a.tobytes()) for a in (ds.features, ds.truth, ds.observed)
    )


class TestGoldenBytes:
    def test_dataset(self, tmp_path):
        ds = generate_synthetic(500, 10, 32, 6, 3.0, 7)
        observed = drop_labels(ds.truth, MissingnessSpec("single", seed=7))
        path = tmp_path / "ds.txt"
        save_dataset(Dataset(ds.features, ds.truth, observed), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "af0ba3edfa83051a8c474d8fa4e853d806eda0ef6183af5c8b4aabe1e7c162d3"

    def test_checkpoint(self, tmp_path):
        params = init_params((32, 64, 16), 10, component_rng(7, "init"), "softplus")
        text = checkpoint_text(params, params.copy())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "f8615d33f8ce638adedb93759e665dbaa4f20588f09e98ed9e6c90a350f7cbca"
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params, params.copy())
        assert path.read_bytes() == text.encode()


class TestSaveMatchesPerRowWriter:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_many_distinct_label_rows(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n, c = 3000, 12
        truth = np.where(rng.random((n, c)) < 0.5, 1, -1).astype(np.int8)
        truth[:, 0] = 1
        observed = np.where((truth == 1) & (rng.random((n, c)) < 0.7), 1, -1).astype(np.int8)
        observed[:, 0] = 1
        ds = Dataset(random_finite(rng, n * 3).reshape(n, 3), truth, observed)
        # most rows are distinct, and some repeat, within and across the blocks
        distinct = {row.tobytes() for row in np.concatenate([truth, observed])}
        assert 1000 < len(distinct) < 2 * n
        save_dataset(ds, tmp_path / "got.txt")
        reference_save_dataset(ds, tmp_path / "want.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    def test_labels_of_another_dtype(self, tmp_path):
        # a Dataset's fields are mutable; a label block of another dtype keeps its text
        ds = generate_synthetic(200, 5, 2, 3, 1.0, 16)
        ds.truth = ds.truth.astype(np.int64)
        ds.observed = ds.observed.astype(np.float64)
        save_dataset(ds, tmp_path / "got.txt")
        reference_save_dataset(ds, tmp_path / "want.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


def random_dataset(n, f, seed):
    """``n`` x ``f`` features of random bit patterns, with valid labels."""
    ds = generate_synthetic(n, 3, f, 2, 1.0, seed)
    features = random_finite(np.random.default_rng(seed), n * f).reshape(n, f)
    return Dataset(features, ds.truth, ds.observed)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@pytest.fixture
def forks(monkeypatch):
    """Every dataset save forks; returns the pids the parent was given."""
    monkeypatch.setattr(data, "_PARALLEL_VALUES", 1)
    monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def acting_in(side, action):
    """A ``_write_rows`` that first runs ``action()`` in the saving process
    (``side`` "parent") or in a process forked from it ("child") only."""
    parent, real = os.getpid(), data._write_rows

    def write_rows(fh, features):
        if (os.getpid() == parent) == (side == "parent"):
            action()
        real(fh, features)

    return write_rows


def raising(error):
    def action():
        raise error

    return action


@needs_fork
class TestTwoCoreWriter:
    @pytest.mark.parametrize("f", [1, 32])
    @pytest.mark.parametrize("n", [1, 2, 3, 256, 257, 4097])
    def test_same_bytes_as_one_core(self, tmp_path, forks, n, f):
        ds = random_dataset(n, f, n + f)
        save_dataset(ds, tmp_path / "got.txt")
        reference_save_dataset(ds, tmp_path / "want.txt")
        assert len(forks) == 1
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["got.txt", "want.txt"]

    @pytest.mark.parametrize(
        "action",
        [
            lambda: os.kill(os.getpid(), signal.SIGKILL),
            raising(SystemExit(143)),  # what perfbench's SIGTERM handler raises
            raising(RuntimeError("child failed")),
        ],
        ids=["killed", "SystemExit", "error"],
    )
    def test_failed_child_gives_one_core_bytes(self, tmp_path, monkeypatch, forks, action):
        ds = random_dataset(600, 4, 21)
        monkeypatch.setattr(data, "_write_rows", acting_in("child", action))
        save_dataset(ds, tmp_path / "got.txt")
        reference_save_dataset(ds, tmp_path / "want.txt")
        assert len(forks) == 1
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["got.txt", "want.txt"]

    def test_child_that_cannot_open_its_file(self, tmp_path, monkeypatch, forks):
        ds = random_dataset(600, 4, 22)
        parent = os.getpid()

        def fake_open(file, *args, **kwargs):
            if os.getpid() != parent:
                raise PermissionError(f"cannot open {file}")
            return open(file, *args, **kwargs)

        monkeypatch.setattr(data, "open", fake_open, raising=False)
        save_dataset(ds, tmp_path / "got.txt")
        reference_save_dataset(ds, tmp_path / "want.txt")
        assert len(forks) == 1
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    def test_failed_child_gives_one_core_error(self, tmp_path, monkeypatch, forks):
        # a value of the child's half whose formatting fails in any process
        ds = random_dataset(3000, 3, 23)
        bad = float(ds.features[2500, 1])

        def failing_repr(value):
            if value == bad:
                raise RuntimeError(f"formatting {value!r} failed")
            return repr(value)

        monkeypatch.setattr(data, "repr", failing_repr, raising=False)
        outcomes = []
        for values in (1, ds.features.size + 1):  # two cores, then one
            monkeypatch.setattr(data, "_PARALLEL_VALUES", values)
            path = tmp_path / "ds.txt"
            path.write_bytes(b"old\n")
            with pytest.raises(RuntimeError) as caught:
                save_dataset(ds, path)
            outcomes.append(str(caught.value))
            assert path.read_bytes() == b"old\n"
            assert [p.name for p in tmp_path.iterdir()] == ["ds.txt"]
        assert outcomes[0] == outcomes[1] == f"formatting {bad!r} failed"
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], 0)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_failing_leaves_no_file_and_no_child(self, tmp_path, monkeypatch, forks, error):
        ds = random_dataset(4097, 32, 24)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        old = path.read_bytes()
        monkeypatch.setattr(data, "_write_rows", acting_in("parent", raising(error("parent failed"))))
        with pytest.raises(error, match="parent failed"):
            save_dataset(ds, path)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[-1], 0)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ds.txt"]

    def test_fork_failing_gives_one_core_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_PARALLEL_VALUES", 1)
        monkeypatch.setattr(data, "_usable_cpus", lambda: 2)

        def fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", fork)
        ds = random_dataset(257, 3, 25)
        save_dataset(ds, tmp_path / "got.txt")
        reference_save_dataset(ds, tmp_path / "want.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


class TestOneCoreWriter:
    """Where the two-core writer is not chosen, no process is forked."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(data, "_PARALLEL_VALUES", 1)

        def fork():
            raise AssertionError("forked")

        if hasattr(os, "fork"):
            monkeypatch.setattr(os, "fork", fork)

    def check(self, tmp_path, ds):
        save_dataset(ds, tmp_path / "got.txt")
        reference_save_dataset(ds, tmp_path / "want.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    def test_without_fork(self, tmp_path, monkeypatch, no_fork):
        monkeypatch.delattr(os, "fork", raising=False)
        self.check(tmp_path, random_dataset(300, 4, 26))

    def test_on_one_cpu(self, tmp_path, monkeypatch, no_fork):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        self.check(tmp_path, random_dataset(300, 4, 27))

    def test_affinity_outranks_cpu_count(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no os.sched_getaffinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert data._usable_cpus() == 1

    def test_object_features(self, tmp_path, monkeypatch, no_fork):
        monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
        ds = random_dataset(300, 4, 28)
        ds.features = ds.features.astype(object)
        self.check(tmp_path, ds)

    def test_below_the_size(self, tmp_path, monkeypatch, no_fork):
        monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(data, "_PARALLEL_VALUES", 1201)
        self.check(tmp_path, random_dataset(300, 4, 29))


class TestRoundTripBitExact:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dataset(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n, c, f = 300, 5, 7
        features = random_finite(rng, n * f).reshape(n, f)
        truth = np.where(rng.random((n, c)) < 0.5, 1, -1).astype(np.int8)
        truth[:, 0] = 1
        observed = np.where((truth == 1) & (rng.random((n, c)) < 0.5), 1, -1).astype(np.int8)
        path = tmp_path / "ds.txt"
        save_dataset(Dataset(features, truth, observed), path)
        loaded = load_dataset(path)
        assert loaded.features.tobytes() == features.tobytes()
        assert loaded.truth.tobytes() == truth.tobytes()
        assert loaded.observed.tobytes() == observed.tobytes()
        assert outcome(reference_load_dataset, path) == outcome(load_dataset, path)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_checkpoint(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        params = init_params((6, 9, 4), 3, component_rng(seed, "init"), "softplus")
        ema = params.copy()
        params.flat[:] = random_finite(rng, params.flat.size)
        ema.flat[:] = random_finite(rng, ema.flat.size)[::-1]
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params, ema)
        loaded, loaded_ema = load_checkpoint(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert loaded_ema.flat.tobytes() == ema.flat.tobytes()


def dataset_text(features, truth, observed, header=None, newline="\n", final_newline=True):
    n, f = len(features), len(features[0].split())
    lines = [header or f"{n} {len(truth[0].split())} {f}"] + features + truth + observed
    return newline.join(lines) + (newline if final_newline else "")


GOOD = dict(
    features=["0.5 -1.25 3.0", "1e-3 2.5 -0.75"],
    truth=["1 -1", "1 1"],
    observed=["1 -1", "-1 1"],
)


def variant(features=None, truth=None, observed=None, **layout):
    """GOOD with at most one line replaced per block, given as (index, text)."""
    parts = []
    for name, change in (("features", features), ("truth", truth), ("observed", observed)):
        block = list(GOOD[name])
        if change is not None:
            block[change[0]] = change[1]
        parts.append(block)
    return dataset_text(*parts, **layout)


ODD_FILES = {
    "good": variant(),
    "underscore": variant(features=(1, "1_0 2.5 -0.75")),
    "plus sign": variant(features=(0, "+1 -1.25 3.0")),
    "full-width digit": variant(features=(0, "\uff11.5 -1.25 3.0")),
    "arabic-indic digit": variant(features=(1, "1e-3 \u0662.5 -0.75")),
    "nan": variant(features=(0, "nan -1.25 3.0")),
    "inf": variant(features=(1, "1e-3 inf -0.75")),
    "overflow to inf": variant(features=(1, "1e-3 1e400 -0.75")),
    "underflow to zero": variant(features=(1, "1e-3 1e-400 -0.75")),
    "hex": variant(features=(0, "0x10 -1.25 3.0")),
    "comma decimal": variant(features=(0, "0,5 -1.25 3.0")),
    "comment sign": variant(features=(0, "0.5 #1 3.0")),
    "nbsp separator": variant(features=(0, "0.5\xa0-1.25 3.0")),
    "fs separator": variant(features=(0, "0.5\x1c-1.25 3.0")),
    "zero-width space": variant(features=(0, "0.5\u200b -1.25 3.0")),
    "tabs and padding": variant(features=(1, "\t1e-3\t 2.5   -0.75  ")),
    "crlf": variant(newline="\r\n"),
    "cr": variant(newline="\r"),
    "no final newline": variant(final_newline=False),
    "crlf, no final newline": variant(newline="\r\n", final_newline=False),
    "mixed line ends": "2 2 3\r\n0.5 -1.25 3.0\r1e-3 2.5 -0.75\n1 -1\r\n1 1\r1 -1\n-1 1\r\n",
    "line separator": variant(features=(0, "0.5\u2028-1.25 3.0")),
    "blank feature line": variant(features=(1, "")),
    "whitespace feature line": variant(features=(0, "   ")),
    "blank line inserted": dataset_text(
        ["0.5 -1.25 3.0", "", "1e-3 2.5 -0.75"], GOOD["truth"], GOOD["observed"],
        header="2 2 3",
    ),
    "short feature row": variant(features=(1, "1e-3 2.5")),
    "long feature row": variant(features=(0, "0.5 -1.25 3.0 4.0")),
    "label +1": variant(truth=(0, "+1 -1")),
    "label 01": variant(truth=(1, "01 1")),
    "label 1.0": variant(observed=(1, "-1 1.0")),
    "label 257": variant(truth=(0, "257 -1")),
    "label 0": variant(truth=(0, "1 0")),
    "label count": variant(observed=(0, "1 -1 -1")),
    "repeated bad label": dataset_text(
        GOOD["features"], ["1 x", "1 x"], ["1 x", "1 x"], header="2 2 3"
    ),
    "observed not subset": variant(observed=(0, "1 1")),
    "truth without positive": variant(truth=(1, "-1 -1"), observed=(1, "-1 -1")),
    "too few lines": "2 2 3\n0.5 -1.25 3.0\n1 -1\n",
    "too many lines": variant() + "1 -1\n",
    "bad header": variant(header="2 x 3"),
    "zero header": variant(header="0 2 3"),
    "empty": "",
}


class TestFallbackEquivalence:
    @pytest.mark.parametrize("name", sorted(ODD_FILES))
    def test_same_result_as_per_line_loader(self, tmp_path, name):
        path = tmp_path / "odd.txt"
        path.write_bytes(ODD_FILES[name].encode("utf-8"))
        assert outcome(load_dataset, path) == outcome(reference_load_dataset, path)

    def test_fallback_still_names_line(self, tmp_path):
        path = tmp_path / "odd.txt"
        path.write_text(variant(features=(1, "1e-3 oops -0.75")))
        with pytest.raises(DatasetFormatError, match="line 3: bad feature value"):
            load_dataset(path)

    def test_fallback_reads_what_float_reads(self, tmp_path):
        path = tmp_path / "odd.txt"
        path.write_text(variant(features=(1, "1_0 \uff12.5 -0.75")), encoding="utf-8")
        assert load_dataset(path).features[1].tolist() == [10.0, 2.5, -0.75]

    def test_large_file_same_as_per_line_loader(self, tmp_path):
        path = large_file(tmp_path)
        assert outcome(load_dataset, path) == outcome(reference_load_dataset, path)


def large_file(directory):
    ds = generate_synthetic(3000, 10, 16, 6, 2.0, 12)
    observed = drop_labels(ds.truth, MissingnessSpec("keep", 0.5, seed=12))
    path = directory / "ds.txt"
    save_dataset(Dataset(ds.features, ds.truth, observed), path)
    return path


CHUNK_CHARS = [1, 2, 3, 7]


class TestChunkBoundaries:
    """Chunks of a few characters put every line break, \\r\\n pair and
    missing final newline across a chunk boundary somewhere; one feature
    line per numpy call makes every fallback name a line of a later block."""

    @pytest.mark.parametrize("rows", [1, data._READ_ROWS])
    @pytest.mark.parametrize("chars", CHUNK_CHARS)
    @pytest.mark.parametrize("name", sorted(ODD_FILES))
    def test_same_result_as_per_line_loader(self, tmp_path, monkeypatch, name, chars, rows):
        path = tmp_path / "odd.txt"
        path.write_bytes(ODD_FILES[name].encode("utf-8"))
        want = outcome(reference_load_dataset, path)
        monkeypatch.setattr(data, "_READ_CHARS", chars)
        monkeypatch.setattr(data, "_READ_ROWS", rows)
        assert outcome(load_dataset, path) == want

    def test_large_file(self, tmp_path, monkeypatch):
        path = large_file(tmp_path)
        want = outcome(reference_load_dataset, path)
        assert want[0] == "loaded"
        monkeypatch.setattr(data, "_READ_ROWS", 128)  # 23 full blocks, then one of 56 rows
        for chars in CHUNK_CHARS:
            monkeypatch.setattr(data, "_READ_CHARS", chars)
            assert outcome(load_dataset, path) == want, chars


class TestHeaderBeyondFile:
    """A header may promise more than the file holds; the loader neither
    allocates for the promise nor loops over it."""

    def test_huge_n_is_a_line_count_error(self, tmp_path):
        path = tmp_path / "odd.txt"
        path.write_text(variant(header=f"{10**12} 2 3"))
        want = outcome(reference_load_dataset, path)
        assert want[2] == f"expected {3 * 10**12 + 1} lines for N={10**12}, found 7"
        assert outcome(load_dataset, path) == want

    def test_huge_f_names_the_first_feature_line(self, tmp_path):
        # reference_load_dataset raises MemoryError here: it allocates 2 x 10**12 floats
        path = tmp_path / "odd.txt"
        path.write_text(variant(header=f"2 2 {10**12}"))
        message = f"^line 2: expected {10**12} features, got 3$"
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(path)

    def test_file_that_grew_while_read(self, tmp_path, monkeypatch):
        path = tmp_path / "good.txt"
        path.write_text(variant())
        # too few bytes for 2 x 3 feature values when the file was opened
        monkeypatch.setattr(data.os, "fstat", lambda fd: type("Stat", (), {"st_size": 11}))
        with pytest.raises(DatasetFormatError, match="^the file grew while it was read$"):
            load_dataset(path)


class TestNotUtf8:
    def write(self, tmp_path, lines):
        path = tmp_path / "odd.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        return path

    def good_lines(self):
        return variant().encode("utf-8").splitlines()

    def test_names_the_line_and_byte(self, tmp_path):
        lines = self.good_lines()
        lines[2] = b"1e-3 2.5 \xff0.75"
        with pytest.raises(DatasetFormatError, match=r"^line 3: not UTF-8 text \(byte 0xff\)$"):
            load_dataset(self.write(tmp_path, lines))

    @pytest.mark.parametrize("chars", CHUNK_CHARS + [data._READ_CHARS])
    def test_first_such_line_outranks_every_other_fault(self, tmp_path, monkeypatch, chars):
        # a bad header, a wrong line count, a truncated euro sign on line 6
        # and a stray byte on line 8
        lines = self.good_lines()
        lines[0] = b"2 x 3"
        lines[5] = b"1 \xe2\x82"
        lines.append(b"\x80")
        path = self.write(tmp_path, lines)
        monkeypatch.setattr(data, "_READ_CHARS", chars)
        with pytest.raises(DatasetFormatError, match=r"^line 6: not UTF-8 text \(byte 0xe2\)$"):
            load_dataset(path)

    def test_line_past_the_count_is_still_read(self, tmp_path):
        path = self.write(tmp_path, self.good_lines() + [b"1 -1", b"\xc0"])
        with pytest.raises(DatasetFormatError, match=r"^line 9: not UTF-8 text \(byte 0xc0\)$"):
            load_dataset(path)


class TestCheckpointParse:
    def corrupt(self, tmp_path, token):
        params = init_params((3, 2), 2, component_rng(0, "init"), "linear")
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params)
        lines = path.read_text().splitlines()
        lines[3] = "w0 " + " ".join([token] + ["0.5"] * 5)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_bad_value_message_is_float_message(self, tmp_path):
        path = self.corrupt(tmp_path, "0.5x")
        with pytest.raises(ValueError) as caught:
            load_checkpoint(path)
        with pytest.raises(ValueError) as expected:
            float("0.5x")
        assert str(caught.value) == str(expected.value)

    @pytest.mark.parametrize("token, value", [("1_0", 10.0), ("\uff11.5", 1.5), ("+2", 2.0)])
    def test_reads_what_float_reads(self, tmp_path, token, value):
        params, _ = load_checkpoint(self.corrupt(tmp_path, token))
        assert params.weights[0][0, 0] == value

    @pytest.mark.parametrize("token", ["nan", "-inf", "Infinity"])
    def test_non_finite_value_names_the_array(self, tmp_path, token):
        with pytest.raises(ValueError, match="^checkpoint: array 'w0' has non-finite values$"):
            load_checkpoint(self.corrupt(tmp_path, token))

    def test_non_finite_ema_value_names_the_array(self, tmp_path):
        params = init_params((3, 2), 2, component_rng(0, "init"), "linear")
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params, params.copy())
        text = path.read_text()
        assert text.endswith("\nbc 0.0 0.0\n")  # the ema section's last array
        path.write_text(text[: -len("0.0\n")] + "nan\n")
        with pytest.raises(ValueError, match="'bc' has non-finite values"):
            load_checkpoint(path)


class TestSaveMemory:
    def test_peak_stays_small(self, tmp_path):
        """Formatting converts a bounded number of rows at a time. Converting
        the whole 10,000 x 32 matrix with tolist() peaks near 10 MB."""
        ds = generate_synthetic(10_000, 10, 32, 6, 1.0, 13)
        path = tmp_path / "ds.txt"
        tracemalloc.start()
        try:
            save_dataset(ds, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestLoadMemory:
    def test_peak_stays_near_the_arrays(self, tmp_path):
        """The text is read a chunk at a time. Holding the whole text and a
        list of its lines, as a whole-file read does, peaks at 5.4 times
        the arrays for this 12.7 MiB file."""
        ds = generate_synthetic(20_000, 10, 32, 6, 1.0, 13)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.features.tobytes() == ds.features.tobytes()
        arrays = sum(a.nbytes for a in (loaded.features, loaded.truth, loaded.observed))
        assert peak < 2 * arrays


class Exploding(float):
    """A value whose formatting fails, after recording the files beside it."""

    def __new__(cls, value, directory, seen):
        out = super().__new__(cls, value)
        out.directory, out.seen = directory, seen
        return out

    def __repr__(self):
        self.seen.extend((p.name, p.stat().st_size) for p in self.directory.iterdir())
        raise RuntimeError("formatting failed")

    __float__ = __repr__


class TestAtomicWrites:
    def test_helper_keeps_old_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("new, half written")
                fh.flush()
                raise RuntimeError("crash")
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_helper_replaces_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_save_dataset_failing_halfway(self, tmp_path):
        path = tmp_path / "ds.txt"
        ds = generate_synthetic(3000, 4, 3, 2, 0.5, 14)
        save_dataset(ds, path)
        old = path.read_bytes()
        seen = []
        features = ds.features.astype(object)
        features[2500, 1] = Exploding(features[2500, 1], tmp_path, seen)
        ds.features = features
        with pytest.raises(RuntimeError, match="formatting failed"):
            save_dataset(ds, path)
        # the failure came after rows had been written to a temporary file
        partial = [size for name, size in seen if name != "ds.txt"]
        assert len(partial) == 1 and partial[0] > 0
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ds.txt"]

    def test_save_checkpoint_failing(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.txt"
        params = init_params((3, 2), 2, component_rng(0, "init"), "linear")
        save_checkpoint(path, params)
        old = path.read_bytes()

        def fail(*args):
            raise RuntimeError("rendering failed")

        monkeypatch.setattr(model, "checkpoint_text", fail)
        with pytest.raises(RuntimeError):
            save_checkpoint(path, params)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.txt"]

    def test_missing_directory(self, tmp_path):
        ds = generate_synthetic(5, 3, 2, 2, 0.5, 15)
        with pytest.raises(OSError):
            save_dataset(ds, tmp_path / "nope" / "ds.txt")
        assert list(tmp_path.iterdir()) == []
