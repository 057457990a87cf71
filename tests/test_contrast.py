"""Contrastive loss, its gradient, and label correction."""

import numpy as np
import pytest

from nucontrast import linalg
from nucontrast.contrast import (
    CorrectionConfig,
    as_label_matrix,
    class_submatrix,
    contrastive_gradient,
    contrastive_loss,
    contrastive_loss_and_gradient,
    correct_labels,
    effective_labels,
)
from nucontrast.linalg import DimensionError


def labels_with_positive_rows(rng, n, c, p=0.5):
    labels = np.where(rng.random((n, c)) < p, 1, -1).astype(np.int8)
    for i in range(n):
        if not (labels[i] == 1).any():
            labels[i, rng.integers(c)] = 1
    return labels


class TestClassSubmatrix:
    def test_all_positive(self):
        z = np.arange(8.0).reshape(4, 2)
        labels = np.ones((4, 1), dtype=int)
        assert np.array_equal(class_submatrix(z, labels, 0), z)

    def test_all_negative(self):
        z = np.arange(8.0).reshape(4, 2)
        labels = -np.ones((4, 1), dtype=int)
        assert class_submatrix(z, labels, 0).shape == (0, 2)

    def test_mixed_preserves_order(self):
        z = np.arange(8.0).reshape(4, 2)
        labels = np.array([[1], [-1], [1], [-1]])
        assert np.array_equal(class_submatrix(z, labels, 0), z[[0, 2]])

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            class_submatrix(np.zeros((2, 2)), np.ones((2, 1), dtype=int), 1)


class TestContrastiveLoss:
    def test_single_class_cancels_exactly(self):
        z = np.random.default_rng(0).normal(size=(5, 3))
        assert contrastive_loss(z, np.ones((5, 1), dtype=int)) == 0.0

    def test_identity_two_singletons(self):
        labels = np.array([[1, -1], [-1, 1]])
        assert contrastive_loss(np.eye(2), labels) == pytest.approx(0.0, abs=1e-12)

    def test_rank_one_embedding(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.array([[1, -1], [-1, 1]])
        expected = 2.0 - np.sqrt(2.0)
        assert contrastive_loss(z, labels) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            contrastive_loss(np.zeros((3, 2)), np.ones((2, 1), dtype=int))

    def test_warns_on_row_without_positive(self):
        z = np.random.default_rng(1).normal(size=(3, 2))
        labels = np.array([[1], [-1], [1]])
        with pytest.warns(UserWarning):
            contrastive_loss(z, labels)

    def test_nonnegative_when_rows_covered(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, d, c = rng.integers(2, 13), rng.integers(1, 7), rng.integers(1, 6)
            z = rng.normal(size=(n, d))
            labels = labels_with_positive_rows(rng, n, c)
            assert contrastive_loss(z, labels) >= -1e-8

    def test_stack_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            a, b, c = (rng.normal(size=(rng.integers(1, 7), d)) for _ in range(3))
            lhs = linalg.nuclear_norm(np.vstack((a, b, c)))
            rhs = linalg.nuclear_norm(np.vstack((a, c))) + linalg.nuclear_norm(
                np.vstack((b, c))
            )
            assert lhs <= rhs + 1e-8


class TestContrastiveGradient:
    def test_single_class_cancels(self):
        z = np.random.default_rng(4).normal(size=(5, 3))
        g = contrastive_gradient(z, np.ones((5, 1), dtype=int))
        assert np.abs(g).max() == 0.0

    def test_identity_disjoint_singletons(self):
        n = 4
        labels = (2 * np.eye(n) - 1).astype(int)
        g = contrastive_gradient(np.eye(n), labels)
        assert np.abs(g).max() < 1e-9

    def test_full_membership_scales_subgradient(self):
        # with every row in all C classes the per-class terms are C copies of
        # the whole-batch subgradient, so the net gradient is (C - 1) of it
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 3))
        labels = np.ones((6, 4), dtype=int)
        g = contrastive_gradient(z, labels)
        expected = 3.0 * linalg.nuclear_subgradient(z)
        assert np.abs(g - expected).max() < 1e-9

    def test_directional_finite_differences(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 10:
            n, d, c = rng.integers(3, 9), rng.integers(2, 6), rng.integers(1, 5)
            z = rng.normal(size=(n, d))
            labels = labels_with_positive_rows(rng, n, c)
            spectra = [np.linalg.svd(z, compute_uv=False)]
            for k in range(c):
                sub = z[labels[:, k] == 1]
                if sub.shape[0]:
                    spectra.append(np.linalg.svd(sub, compute_uv=False))
            if any(
                s[0] == 0 or s[-1] / s[0] < 0.05
                or (len(s) > 1 and (-np.diff(s / s[0])).min() < 0.05)
                for s in spectra
            ):
                continue
            checked += 1
            grad = contrastive_gradient(z, labels)
            w = rng.normal(size=z.shape)
            h = 1e-5
            fd = (
                contrastive_loss(z + h * w, labels)
                - contrastive_loss(z - h * w, labels)
            ) / (2 * h)
            dot = float((grad * w).sum())
            assert abs(fd - dot) / max(abs(fd), abs(dot), 1e-6) < 1e-3

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(6, 4))
        labels = labels_with_positive_rows(rng, 6, 3)
        perm = rng.permutation(6)
        g = contrastive_gradient(z, labels)
        g_perm = contrastive_gradient(z[perm], labels[perm])
        assert np.abs(g_perm - g[perm]).max() < 1e-9
        assert abs(
            contrastive_loss(z[perm], labels[perm]) - contrastive_loss(z, labels)
        ) < 1e-9

    def test_combined_matches_separate_calls(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(7, 4))
        labels = labels_with_positive_rows(rng, 7, 3)
        value, grad = contrastive_loss_and_gradient(z, labels, 1e-6)
        assert value == contrastive_loss(z, labels)
        assert np.array_equal(grad, contrastive_gradient(z, labels, 1e-6))

    def test_empty_class_skipped(self):
        z = np.random.default_rng(9).normal(size=(3, 2))
        labels = np.array([[1, -1], [1, -1], [1, -1]])
        # class 1 empty: loss reduces to the single-class case
        assert contrastive_loss(z, labels) == 0.0


class TestLabelCorrection:
    def test_confident_negative_flips(self):
        got = correct_labels(np.array([[-1]]), np.array([[0.9]]), 0.6)
        assert got[0, 0] == 1

    def test_unconfident_negative_stays(self):
        got = correct_labels(np.array([[-1]]), np.array([[0.3]]), 0.6)
        assert got[0, 0] == -1

    def test_positive_never_demoted(self):
        got = correct_labels(np.array([[1]]), np.array([[0.1]]), 0.6)
        assert got[0, 0] == 1

    def test_threshold_is_inclusive(self):
        got = correct_labels(np.array([[-1]]), np.array([[0.6]]), 0.6)
        assert got[0, 0] == 1

    def test_monotone_superset(self):
        rng = np.random.default_rng(10)
        observed = labels_with_positive_rows(rng, 8, 5)
        probs = rng.random((8, 5))
        corrected = correct_labels(observed, probs, 0.6)
        assert ((observed == 1) <= (corrected == 1)).all()

    def test_lower_threshold_never_corrects_fewer(self):
        rng = np.random.default_rng(11)
        observed = labels_with_positive_rows(rng, 10, 4)
        probs = rng.random((10, 4))
        low = (correct_labels(observed, probs, 0.3) != observed).sum()
        high = (correct_labels(observed, probs, 0.8) != observed).sum()
        assert low >= high

    def test_validation(self):
        with pytest.raises(ValueError):
            correct_labels(np.array([[-1]]), np.array([[1.5]]), 0.6)
        with pytest.raises(ValueError):
            correct_labels(np.array([[-1]]), np.array([[0.5]]), 1.0)
        with pytest.raises(DimensionError):
            correct_labels(np.array([[-1]]), np.array([[0.5, 0.5]]), 0.6)


class TestEffectiveLabels:
    CFG = CorrectionConfig(threshold=0.6, start_epoch=1)

    def test_before_start_epoch_passthrough(self):
        observed = np.array([[-1, 1]])
        probs = np.array([[0.99, 0.99]])
        got = effective_labels(observed, probs, 0, self.CFG)
        assert np.array_equal(got, observed)

    def test_after_start_epoch_corrects(self):
        got = effective_labels(np.array([[-1]]), np.array([[0.95]]), 1, self.CFG)
        assert got[0, 0] == 1

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        observed = labels_with_positive_rows(rng, 6, 4)
        probs = rng.random((6, 4))
        once = effective_labels(observed, probs, 3, self.CFG)
        twice = effective_labels(once, probs, 3, self.CFG)
        assert np.array_equal(once, twice)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorrectionConfig(threshold=0.0)
        with pytest.raises(ValueError):
            CorrectionConfig(start_epoch=0)


def test_label_matrix_validation():
    with pytest.raises(ValueError):
        as_label_matrix(np.array([[0, 1]]))
    with pytest.raises(DimensionError):
        as_label_matrix(np.array([1, -1]))


@pytest.mark.parametrize(
    "values", [[[257, -1]], [[255, 1]], [[1.7, -1]], [[-1.2, 1]]]
)
def test_label_matrix_checks_values_before_the_int8_cast(values):
    # each of these casts to a valid int8 label (1, -1, 1, -1) but is not one
    with pytest.raises(ValueError, match="entries must all be -1 or \\+1"):
        as_label_matrix(np.array(values))


def test_label_matrix_accepts_float_labels():
    out = as_label_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert out.dtype == np.int8
    assert np.array_equal(out, [[1, -1], [-1, 1]])
