"""Contrastive loss, its gradient, and label correction."""

import warnings

import numpy as np
import pytest

from contrast_reference import boolean_column_loss_and_gradient, reference_loss_and_gradient
from nucontrast import linalg
from nucontrast.losses import bce_loss
from nucontrast.contrast import (
    CorrectionConfig,
    as_label_matrix,
    contrastive_loss_and_gradient,
    correct_labels,
    effective_labels,
)
from nucontrast.linalg import DimensionError
from step_reference import reference_correct_labels


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
        assert contrastive_loss_and_gradient(z, np.ones((5, 1), dtype=int))[0] == 0.0

    def test_identity_two_singletons(self):
        labels = np.array([[1, -1], [-1, 1]])
        value = contrastive_loss_and_gradient(np.eye(2), labels)[0]
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_rank_one_embedding(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.array([[1, -1], [-1, 1]])
        expected = 2.0 - np.sqrt(2.0)
        value = contrastive_loss_and_gradient(z, labels)[0]
        assert value == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            contrastive_loss_and_gradient(np.zeros((3, 2)), np.ones((2, 1), dtype=int))[0]

    def test_warns_on_row_without_positive(self):
        z = np.random.default_rng(1).normal(size=(3, 2))
        labels = np.array([[1], [-1], [1]])
        with pytest.warns(UserWarning):
            contrastive_loss_and_gradient(z, labels)[0]

    def test_nonnegative_when_rows_covered(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, d, c = rng.integers(2, 13), rng.integers(1, 7), rng.integers(1, 6)
            z = rng.normal(size=(n, d))
            labels = labels_with_positive_rows(rng, n, c)
            assert contrastive_loss_and_gradient(z, labels)[0] >= -1e-8

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
        g = contrastive_loss_and_gradient(z, np.ones((5, 1), dtype=int))[1]
        assert np.abs(g).max() == 0.0

    def test_identity_disjoint_singletons(self):
        n = 4
        labels = (2 * np.eye(n) - 1).astype(int)
        g = contrastive_loss_and_gradient(np.eye(n), labels)[1]
        assert np.abs(g).max() < 1e-9

    def test_full_membership_scales_subgradient(self):
        # with every row in all C classes the per-class terms are C copies of
        # the whole-batch subgradient, so the net gradient is (C - 1) of it
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 3))
        labels = np.ones((6, 4), dtype=int)
        g = contrastive_loss_and_gradient(z, labels)[1]
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
            grad = contrastive_loss_and_gradient(z, labels)[1]
            w = rng.normal(size=z.shape)
            h = 1e-5
            fd = (
                contrastive_loss_and_gradient(z + h * w, labels)[0]
                - contrastive_loss_and_gradient(z - h * w, labels)[0]
            ) / (2 * h)
            dot = float((grad * w).sum())
            assert abs(fd - dot) / max(abs(fd), abs(dot), 1e-6) < 1e-3

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(6, 4))
        labels = labels_with_positive_rows(rng, 6, 3)
        perm = rng.permutation(6)
        g = contrastive_loss_and_gradient(z, labels)[1]
        g_perm = contrastive_loss_and_gradient(z[perm], labels[perm])[1]
        assert np.abs(g_perm - g[perm]).max() < 1e-9
        assert abs(
            contrastive_loss_and_gradient(z[perm], labels[perm])[0]
            - contrastive_loss_and_gradient(z, labels)[0]
        ) < 1e-9

    def test_combined_matches_separate_calls(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(7, 4))
        labels = labels_with_positive_rows(rng, 7, 3)
        value, grad = contrastive_loss_and_gradient(z, labels, 1e-6)
        assert value == contrastive_loss_and_gradient(z, labels)[0]
        assert np.array_equal(grad, contrastive_loss_and_gradient(z, labels, 1e-6)[1])

    def test_loss_is_the_sum_of_nuclear_norms(self):
        rng = np.random.default_rng(24)
        for n in (2, 5, 16):
            z = rng.normal(size=(n, 4))
            labels = labels_with_positive_rows(rng, n, 6)
            expected = 0.0
            for k in range(labels.shape[1]):
                if (labels[:, k] == 1).any():
                    expected += linalg.nuclear_norm(z[labels[:, k] == 1])
            expected -= linalg.nuclear_norm(z)
            assert contrastive_loss_and_gradient(z, labels)[0] == expected

    def test_zero_width_embedding_is_zero(self):
        z = np.zeros((3, 0))
        labels = np.ones((3, 2), dtype=int)
        value, grad = contrastive_loss_and_gradient(z, labels)
        assert value == 0.0 == contrastive_loss_and_gradient(z, labels)[0]
        assert grad.shape == (3, 0)

    def test_empty_class_skipped(self):
        z = np.random.default_rng(9).normal(size=(3, 2))
        labels = np.array([[1, -1], [1, -1], [1, -1]])
        # class 1 empty: loss reduces to the single-class case
        assert contrastive_loss_and_gradient(z, labels)[0] == 0.0


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

    def test_warning_points_at_the_caller(self):
        z = np.random.default_rng(24).normal(size=(3, 2))
        with pytest.warns(UserWarning, match="no positive label") as record:
            contrastive_loss_and_gradient(z, np.array([[1], [-1], [1]]))
        assert record[0].filename == __file__


def run_labels(rng, n, c):
    """Rows in several classes, plus contiguous runs at the start, in the
    middle and at the end, and a class that holds every row."""
    labels = labels_with_positive_rows(rng, n, c, 0.3)
    labels[:, :4] = -1
    labels[: n // 8, 0] = 1
    labels[n // 3 : n // 2, 1] = 1
    labels[n - n // 5 :, 2] = 1
    labels[:, 3] = 1
    return labels


def assert_same_bytes(z, labels, sv_threshold):
    value, grad = contrastive_loss_and_gradient(z, labels, sv_threshold)
    ref_value, ref_grad = boolean_column_loss_and_gradient(z, labels, sv_threshold)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert grad.dtype == ref_grad.dtype and grad.shape == ref_grad.shape
    assert grad.tobytes() == ref_grad.tobytes()


# 0.999 keeps only the top singular vector of a block; a zero row keeps none
SV_THRESHOLDS = [1e-6, 0.3, 0.999]


class TestBytesMatchBooleanColumnLoop:
    """Row runs and views give the bytes of the boolean gather and scatter."""

    @pytest.mark.parametrize("sv_threshold", SV_THRESHOLDS)
    def test_batch_two_every_row_set(self, sv_threshold):
        rng = np.random.default_rng([41, int(sv_threshold * 10)])
        for trial in range(200):
            z = rng.normal(size=(2, 16))
            if trial % 4 == 0:
                z[rng.integers(2)] = 0.0
            labels = labels_with_positive_rows(rng, 2, 10, float(rng.choice([0.1, 0.5])))
            assert_same_bytes(z, labels, sv_threshold)

    @pytest.mark.parametrize("sv_threshold", SV_THRESHOLDS)
    def test_batch_64_runs_and_scattered_rows(self, sv_threshold):
        rng = np.random.default_rng([42, int(sv_threshold * 10)])
        for _ in range(10):
            z = structured_embedding(rng, 64, 32, float(rng.choice([0.9, 0.5])))
            assert_same_bytes(z, run_labels(rng, 64, 10), sv_threshold)

    @pytest.mark.parametrize("sv_threshold", SV_THRESHOLDS)
    def test_class_holds_every_row(self, sv_threshold):
        rng = np.random.default_rng([43, int(sv_threshold * 10)])
        for n in (2, 5, 64):
            assert_same_bytes(rng.normal(size=(n, 8)), np.ones((n, 3), dtype=int), sv_threshold)

    @pytest.mark.parametrize("sv_threshold", SV_THRESHOLDS)
    def test_zero_rows(self, sv_threshold):
        assert_same_bytes(np.zeros((0, 16)), np.ones((0, 10), dtype=int), sv_threshold)

    @pytest.mark.parametrize("sv_threshold", SV_THRESHOLDS)
    def test_rows_without_a_positive(self, sv_threshold):
        rng = np.random.default_rng([44, int(sv_threshold * 10)])
        z = rng.normal(size=(64, 16))
        labels = run_labels(rng, 64, 10)
        labels[[5, 40, 63]] = -1
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert_same_bytes(z, labels, sv_threshold)
        assert [(w.category, w.filename) for w in record] == [(UserWarning, __file__)]

    @pytest.mark.parametrize("sv_threshold", SV_THRESHOLDS)
    def test_norm_and_subgradient_is_the_prefix_product(self, sv_threshold):
        # the one-row exit returns v.T, since the closed form's u is [[1.0]];
        # it must keep the product's bytes, a negative zero included
        rng = np.random.default_rng([45, int(sv_threshold * 10)])
        blocks = [rng.normal(size=(1, 16)) for _ in range(10)]
        blocks += [np.zeros((1, 16)), np.array([[-0.0, 3.0, -0.0, -4.0]])]
        blocks += [structured_embedding(rng, n, d, 0.5) for n, d in ((2, 16), (5, 3), (64, 32))]
        for a in blocks:
            u, s, v = linalg.svd(a)
            r = np.count_nonzero(s > sv_threshold * s[0])
            norm, sub = linalg._norm_and_subgradient(a, sv_threshold)
            assert np.float64(norm).tobytes() == s.sum().tobytes()
            assert sub.tobytes() == (u[:, :r] @ v[:, :r].T).tobytes()


def flip_lapack_signs(monkeypatch, seed):
    """Make numpy.linalg.svd, as linalg calls it, return LAPACK's factors with
    a random sign on each pair of a u column and a vh row; returns the list
    of signs it drew."""
    lapack_svd = np.linalg.svd
    rng = np.random.default_rng(seed)
    drawn = []

    def flipped(a, full_matrices):
        u, s, vh = lapack_svd(a, full_matrices=full_matrices)
        signs = rng.choice([-1.0, 1.0], size=s.size)
        u *= signs
        vh *= signs[:, None]
        drawn.extend(signs.tolist())
        return u, s, vh

    monkeypatch.setattr(linalg.np.linalg, "svd", flipped)
    return drawn


class TestSignsDoNotMatter:
    """Every reader of the SVD uses s or products u @ v.T, whose bytes are
    the same when a u column and its v column change sign together."""

    def assert_same_bytes_when_flipped(self, monkeypatch, cases, sv_threshold):
        want = [contrastive_loss_and_gradient(z, labels, sv_threshold) for z, labels in cases]
        drawn = flip_lapack_signs(monkeypatch, 47)
        for (z, labels), (value, grad) in zip(cases, want):
            got_value, got_grad = contrastive_loss_and_gradient(z, labels, sv_threshold)
            assert np.float64(got_value).tobytes() == np.float64(value).tobytes()
            assert got_grad.tobytes() == grad.tobytes()
        assert -1.0 in drawn and 1.0 in drawn

    @pytest.mark.parametrize("sv_threshold", [1e-6, 0.3])
    def test_batch_two_ten_classes(self, monkeypatch, sv_threshold):
        rng = np.random.default_rng([48, int(sv_threshold * 10)])
        cases = [
            (rng.normal(size=(2, 16)), labels_with_positive_rows(rng, 2, 10, 0.3))
            for _ in range(200)
        ]
        self.assert_same_bytes_when_flipped(monkeypatch, cases, sv_threshold)

    @pytest.mark.parametrize("sv_threshold", [1e-6, 0.3])
    def test_batch_64_scattered_rows(self, monkeypatch, sv_threshold):
        rng = np.random.default_rng([49, int(sv_threshold * 10)])
        cases = [
            (structured_embedding(rng, 64, 32, float(rng.choice([0.9, 0.5]))),
             run_labels(rng, 64, 10))
            for _ in range(10)
        ]
        self.assert_same_bytes_when_flipped(monkeypatch, cases, sv_threshold)

    @pytest.mark.parametrize("sv_threshold", [1e-6, 0.3])
    def test_nuclear_subgradient(self, monkeypatch, sv_threshold):
        rng = np.random.default_rng([50, int(sv_threshold * 10)])
        blocks = [rng.normal(size=shape) for shape in ((2, 16), (16, 2), (6, 4), (64, 32))]
        blocks += [structured_embedding(rng, 8, 4, 0.5)]
        want = [linalg.nuclear_subgradient(a, sv_threshold) for a in blocks]
        drawn = flip_lapack_signs(monkeypatch, 51)
        for a, sub in zip(blocks, want):
            assert linalg.nuclear_subgradient(a, sv_threshold).tobytes() == sub.tobytes()
        assert -1.0 in drawn and 1.0 in drawn


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

    def test_bit_identical_to_copying_form(self):
        rng = np.random.default_rng(12)
        for shape in ((2, 10), (64, 10), (5, 1)):
            observed = labels_with_positive_rows(rng, *shape)
            probs = rng.random(shape)
            probs.flat[:2] = (0.6, np.nextafter(0.6, 0.0))  # at and just below
            for source in (observed, observed.astype(np.int64), observed.astype(float)):
                before = source.copy()
                got = correct_labels(source, probs, 0.6)
                want = reference_correct_labels(source, probs, 0.6)
                assert got.dtype == want.dtype == np.int8
                assert got.tobytes() == want.tobytes()
                assert source.tobytes() == before.tobytes()  # input untouched

    def test_validation(self):
        with pytest.raises(ValueError):
            correct_labels(np.array([[-1]]), np.array([[1.5]]), 0.6)
        with pytest.raises(ValueError):
            correct_labels(np.array([[-1]]), np.array([[0.5]]), 1.0)
        with pytest.raises(DimensionError):
            correct_labels(np.array([[-1]]), np.array([[0.5, 0.5]]), 0.6)

    @pytest.mark.parametrize("bad", [1.5, -0.1])
    def test_probs_message_names_the_value(self, bad):
        probs = np.array([[0.5, bad]])
        with pytest.raises(ValueError) as caught:
            correct_labels(np.array([[1, -1]]), probs, 0.6)
        assert str(caught.value) == f"probs entries must lie in [0, 1], got {bad!r}"


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

    def test_gate_opens_at_start_epoch(self):
        cfg = CorrectionConfig(start_epoch=3)
        assert [cfg.gate_open(epoch) for epoch in (1, 2, 3, 4)] == [False, False, True, True]

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        observed = labels_with_positive_rows(rng, 6, 4)
        probs = rng.random((6, 4))
        once = effective_labels(observed, probs, 3, self.CFG)
        twice = effective_labels(once, probs, 3, self.CFG)
        assert np.array_equal(once, twice)

    @pytest.mark.parametrize(
        "probs, message",
        [
            ([[np.nan, 7.0]], "probs contains non-finite entries"),
            ([[0.5]], r"score shape \(1, 1\) does not match label shape \(1, 2\)"),
        ],
    )
    def test_closed_gate_checks_probs_as_the_open_one(self, probs, message):
        cfg = CorrectionConfig(start_epoch=3)
        for epoch in (1, 3):
            with pytest.raises(ValueError, match=message):
                effective_labels([[1, -1]], probs, epoch, cfg)

    @pytest.mark.parametrize("epoch", [1.5, True, np.nan, -1])
    def test_bad_epoch(self, epoch):
        with pytest.raises(ValueError, match="epoch must be"):
            effective_labels([[1, -1]], [[0.5, 0.5]], epoch, CorrectionConfig(start_epoch=3))

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


@pytest.mark.parametrize("values", [[[257, -1]], [[1.7, -1]], [[0, 1]]])
def test_losses_check_label_values(values):
    # the losses build their positive mask without the int8 copy; the rule holds
    for check in (
        lambda labels: contrastive_loss_and_gradient(np.ones((1, 2)), labels),
        lambda labels: bce_loss(np.zeros((1, 2)), labels),
    ):
        with pytest.raises(ValueError, match="labels entries must all be -1 or \\+1"):
            check(np.array(values))


def test_label_matrix_accepts_float_labels():
    out = as_label_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert out.dtype == np.int8
    assert np.array_equal(out, [[1, -1], [-1, 1]])
