"""Contrastive loss, its gradient, and label correction."""

import warnings

import numpy as np
import pytest

from contrast_reference import reference_loss_and_gradient
from nucontrast import linalg
from nucontrast.contrast import (
    CorrectionConfig,
    as_label_matrix,
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
    """Each class's term is the nuclear norm of its positive rows, in order."""

    def test_all_positive(self):
        # the class block is the whole batch, so its term cancels exactly
        z = np.arange(8.0).reshape(4, 2)
        value, grad = contrastive_loss_and_gradient(z, np.ones((4, 1), dtype=int))
        assert value == 0.0
        assert not grad.any()

    def test_all_negative(self, monkeypatch):
        z = np.random.default_rng(20).normal(size=(4, 2))
        base = np.ones((4, 1), dtype=int)
        with_empty = np.hstack([-base, base, -base])
        calls = []
        svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda a: calls.append(a.shape) or svd(a))
        value, grad = contrastive_loss_and_gradient(z, with_empty)
        assert calls == [(4, 2), (4, 2)]  # the empty classes take no SVD
        ref_value, ref_grad = contrastive_loss_and_gradient(z, base)
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()

    def test_mixed_preserves_order(self):
        z = np.random.default_rng(21).normal(size=(4, 3))
        labels = np.array([[1, 1], [-1, 1], [1, 1], [-1, 1]])
        value, grad = contrastive_loss_and_gradient(z, labels)
        assert value == pytest.approx(linalg.nuclear_norm(z[[0, 2]]), abs=1e-12)
        # class 1 is the whole batch and cancels; class 0 lands on rows 0, 2
        assert np.abs(grad[[0, 2]] - linalg.nuclear_subgradient(z[[0, 2]])).max() < 1e-12
        assert np.abs(grad[[1, 3]]).max() < 1e-12


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


def structured_embedding(rng, n, d, decay):
    """n x d rows whose singular values fall geometrically by ``decay``."""
    r = min(n, d)
    u, _ = np.linalg.qr(rng.normal(size=(n, r)))
    v, _ = np.linalg.qr(rng.normal(size=(d, r)))
    return (u * decay ** np.arange(r)) @ v.T


def awkward_labels(rng, n, c):
    """Random labels with an empty, a one-row and an all-row class."""
    labels = np.where(rng.random((n, c)) < 0.3, 1, -1)
    labels[:, 0] = -1
    labels[:, 1] = -1
    labels[rng.integers(n), 1] = 1
    labels[:, 2] = 1
    return labels


class TestMatchesReferenceLoop:
    """The loop over present classes, with its one-row closed form, agrees
    with the plain per-class loop in ``contrast_reference``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 64])
    @pytest.mark.parametrize("sv_threshold", [1e-6, 0.05, 0.3, 0.7])
    def test_value_and_gradient(self, n, sv_threshold):
        rng = np.random.default_rng([n, int(sv_threshold * 100)])
        for trial in range(12):
            d = int(rng.choice([1, 3, 16]))
            z = structured_embedding(rng, n, d, float(rng.choice([0.9, 0.5, 0.1])))
            if trial % 3 == 0:
                z[rng.integers(n)] = 0.0  # a zero row
            if trial % 6 == 1:
                z[:] = 0.0  # every block is zero
            labels = awkward_labels(rng, n, 6)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # rows may lack a positive
                value, grad = contrastive_loss_and_gradient(z, labels, sv_threshold)
            ref_value, ref_grad = reference_loss_and_gradient(z, labels, sv_threshold)
            assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))
            assert np.abs(grad - ref_grad).max() <= 1e-12 * max(1.0, np.abs(ref_grad).max())

    def test_cut_falls_mid_spectrum(self):
        # singular values 1, 0.5, 0.25, 0.125: a threshold of 0.3 keeps two
        z = structured_embedding(np.random.default_rng(22), 8, 4, 0.5)
        u, _, vh = np.linalg.svd(z, full_matrices=False)
        kept = u[:, :2] @ vh[:2]
        # two classes that hold every row leave 2 * kept - kept
        _, grad = contrastive_loss_and_gradient(z, np.ones((8, 2), dtype=int), 0.3)
        assert np.abs(grad - kept).max() < 1e-12
        assert np.abs(linalg.nuclear_subgradient(z, 0.3) - kept).max() < 1e-12

    def test_svd_once_per_present_class_plus_batch(self, monkeypatch):
        rng = np.random.default_rng(23)
        shapes = []
        svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda a: shapes.append(a.shape) or svd(a))
        for _ in range(20):
            n = int(rng.integers(1, 9))
            labels = awkward_labels(rng, n, 6)
            shapes.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                contrastive_loss_and_gradient(rng.normal(size=(n, 4)), labels)
            counts = (labels == 1).sum(axis=0)
            assert shapes == [(int(m), 4) for m in counts[counts > 0]] + [(n, 4)]

    @pytest.mark.parametrize(
        "fn", [contrastive_loss, contrastive_gradient, contrastive_loss_and_gradient]
    )
    def test_warning_points_at_the_caller(self, fn):
        z = np.random.default_rng(24).normal(size=(3, 2))
        with pytest.warns(UserWarning, match="no positive label") as record:
            fn(z, np.array([[1], [-1], [1]]))
        assert record[0].filename == __file__


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
