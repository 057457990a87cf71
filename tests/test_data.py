"""Synthetic generation, missing-label simulation, and dataset file I/O."""

import signal

import numpy as np
import pytest

from nucontrast import linalg
from nucontrast.data import (
    Dataset,
    DatasetFormatError,
    MissingnessSpec,
    average_positives,
    drop_labels,
    generate_synthetic,
    load_dataset,
    save_dataset,
)


def svd_rank(a, tol=1e-8):
    s = linalg.svd(np.asarray(a, dtype=float)).s
    return int((s > tol * max(s[0], 1.0)).sum())


class TestGenerate:
    def test_single_group_no_noise_is_rank_one(self):
        ds = generate_synthetic(30, 6, 4, 1, 0.0, seed=0)
        assert np.unique(ds.truth, axis=0).shape[0] == 1
        assert svd_rank(ds.truth) == 1
        assert np.unique(ds.features, axis=0).shape[0] == 1

    def test_reproducible(self):
        a = generate_synthetic(50, 8, 6, 4, 0.3, seed=42)
        b = generate_synthetic(50, 8, 6, 4, 0.3, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.truth, b.truth)

    def test_every_row_has_positive(self):
        ds = generate_synthetic(200, 10, 8, 6, 2.0, seed=1)
        assert ((ds.truth == 1).sum(axis=1) >= 1).all()

    def test_class_submatrix_rank_bounded(self):
        ds = generate_synthetic(100, 8, 6, 5, 0.2, seed=2)
        full_rank = svd_rank(ds.truth)
        for k in range(ds.n_classes):
            rows = ds.truth[ds.truth[:, k] == 1]
            if rows.shape[0]:
                assert svd_rank(rows) <= full_rank

    def test_nested_templates(self):
        # templates are prefixes of one implication chain, so any two truth
        # rows without flip noise are nested or equal
        ds = generate_synthetic(60, 8, 4, 4, 0.0, seed=3)
        uniq = np.unique(ds.truth, axis=0)
        sizes = (uniq == 1).sum(axis=1)
        order = np.argsort(sizes)
        for i in range(len(order) - 1):
            small = uniq[order[i]] == 1
            big = uniq[order[i + 1]] == 1
            assert (small <= big).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, 4, 4, 5, 0.1, seed=0)  # groups > classes
        with pytest.raises(ValueError):
            generate_synthetic(0, 4, 4, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(10, 4, 4, 2, 5.0, seed=0)  # noise out of range

    @pytest.mark.parametrize(
        "args, message",
        [
            ((10, 4, 4, 5, 0.1), "n_groups must not exceed n_classes, got n_groups=5 n_classes=4"),
            ((10, 4, 4, 2, 5.0), "noise must be in [0, 4], got 5.0"),
        ],
    )
    def test_range_message_names_the_value(self, args, message):
        with pytest.raises(ValueError) as caught:
            generate_synthetic(*args, seed=0)
        assert str(caught.value) == message


class TestDropLabels:
    def test_single_label_average_is_exactly_one(self):
        ds = generate_synthetic(500, 10, 4, 6, 1.0, seed=4)
        observed = drop_labels(ds.truth, MissingnessSpec("single", seed=4))
        assert average_positives(observed) == 1.0

    def test_keep_all_is_identity(self):
        ds = generate_synthetic(100, 8, 4, 5, 0.5, seed=5)
        observed = drop_labels(ds.truth, MissingnessSpec("keep", 1.0, seed=5))
        assert np.array_equal(observed, ds.truth)

    def test_keep_fraction_close_to_ratio(self):
        ds = generate_synthetic(4000, 20, 4, 10, 0.5, seed=6)
        observed = drop_labels(ds.truth, MissingnessSpec("keep", 0.4, seed=6))
        kept = (observed == 1).sum() / (ds.truth == 1).sum()
        assert abs(kept - 0.4) < 0.02

    def test_never_creates_or_empties(self):
        ds = generate_synthetic(300, 8, 4, 5, 1.5, seed=7)
        for spec in (MissingnessSpec("keep", 0.2, seed=7), MissingnessSpec("single", seed=7)):
            observed = drop_labels(ds.truth, spec)
            assert ((observed == 1) <= (ds.truth == 1)).all()
            assert ((observed == 1).sum(axis=1) >= 1).all()

    def test_tiny_ratio_returns_at_once_with_one_positive_per_row(self):
        # redrawing until a row keeps something would take about 1e300 draws
        def too_slow(signum, frame):
            raise TimeoutError("drop_labels did not return within 10 s")

        truth = generate_synthetic(5, 4, 3, 2, 0.05, seed=0).truth
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(10)
        try:
            observed = drop_labels(truth, MissingnessSpec("keep", 1e-300, seed=0))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert ((observed == 1).sum(axis=1) == 1).all()
        assert ((observed == 1) <= (truth == 1)).all()

    def test_keep_is_conditioned_on_a_survivor(self):
        # every row has 3 positives: each nonempty survivor set S has
        # probability r^|S| (1-r)^(3-|S|) / (1 - (1-r)^3)
        n, r = 20000, 0.2
        observed = drop_labels(np.ones((n, 3), dtype=np.int8), MissingnessSpec("keep", r, seed=3))
        sets, counts = np.unique(observed == 1, axis=0, return_counts=True)
        assert len(sets) == 7 and sets.any(axis=1).all()
        sizes = sets.sum(axis=1)
        exact = r**sizes * (1 - r) ** (3 - sizes) / (1 - (1 - r) ** 3)
        assert np.abs(counts / n - exact).max() < 0.015  # over 4 standard errors

    def test_reproducible(self):
        ds = generate_synthetic(100, 8, 4, 5, 0.5, seed=8)
        a = drop_labels(ds.truth, MissingnessSpec("keep", 0.5, seed=9))
        b = drop_labels(ds.truth, MissingnessSpec("keep", 0.5, seed=9))
        assert np.array_equal(a, b)

    def test_row_without_positive_rejected(self):
        with pytest.raises(ValueError):
            drop_labels(np.array([[-1, -1]]), MissingnessSpec("single", seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MissingnessSpec("keep", 1.5)
        # "single" reads no ratio, but an out-of-range one is still refused
        with pytest.raises(ValueError, match=r"keep ratio must be in \(0, 1\], got 5.0"):
            MissingnessSpec("single", ratio=5.0)
        with pytest.raises(ValueError):
            MissingnessSpec("drop")


class TestDatasetInvariants:
    def test_observed_must_be_subset(self):
        feats = np.zeros((1, 2))
        with pytest.raises(ValueError):
            Dataset(feats, np.array([[1, -1]]), np.array([[1, 1]]))

    def test_truth_needs_positive(self):
        feats = np.zeros((1, 2))
        with pytest.raises(ValueError):
            Dataset(feats, np.array([[-1, -1]]), np.array([[-1, -1]]))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.ones((1, 2), dtype=int), np.ones((1, 2), dtype=int))


class TestFileRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        ds = generate_synthetic(20, 5, 3, 3, 0.7, seed=10)
        observed = drop_labels(ds.truth, MissingnessSpec("single", seed=10))
        ds = Dataset(ds.features, ds.truth, observed)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.truth, ds.truth)
        assert np.array_equal(loaded.observed, ds.observed)

    def test_fixture_file(self, tmp_path):
        text = (
            "2 2 3\n"
            "0.5 -1.25 3.0\n"
            "1e-3 2.5 -0.75\n"
            "1 -1\n"
            "1 1\n"
            "1 -1\n"
            "-1 1\n"
        )
        path = tmp_path / "hand.txt"
        path.write_text(text)
        ds = load_dataset(path)
        assert np.array_equal(ds.features, [[0.5, -1.25, 3.0], [1e-3, 2.5, -0.75]])
        assert np.array_equal(ds.truth, [[1, -1], [1, 1]])
        assert np.array_equal(ds.observed, [[1, -1], [-1, 1]])

    def test_zero_label_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 1\n0.5\n1 0\n1 -1\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 x 3\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(path)

    def test_wrong_line_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 2\n0.0 0.0\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_wrong_feature_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1 2\n0.5\n1\n1\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)

    def test_save_reproducible_bytes(self, tmp_path):
        ds = generate_synthetic(10, 4, 3, 2, 0.5, seed=11)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()
