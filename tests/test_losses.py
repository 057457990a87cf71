"""Classification losses: values and analytic gradients."""

import numpy as np
import pytest

from step_reference import reference_bce_loss
from nucontrast.linalg import DimensionError
from nucontrast.losses import bce_loss, focal_loss, sigmoid


def rand_case(seed, n=4, c=3):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=2.0, size=(n, c))
    labels = np.where(rng.random((n, c)) < 0.5, 1, -1)
    return logits, labels


def fd_grad(fn, logits, step=1e-6):
    g = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            hi = logits.copy()
            lo = logits.copy()
            hi[i, j] += step
            lo[i, j] -= step
            g[i, j] = (fn(hi) - fn(lo)) / (2 * step)
    return g


class TestBce:
    def test_zero_logit_is_ln2(self):
        value, _ = bce_loss(np.zeros((1, 1)), np.array([[1]]))
        assert value == pytest.approx(np.log(2.0), abs=1e-12)
        value, _ = bce_loss(np.zeros((1, 1)), np.array([[-1]]))
        assert value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturated_correct_is_tiny(self):
        value, _ = bce_loss(np.array([[20.0]]), np.array([[1]]))
        assert value < 1e-8

    def test_gradient_matches_finite_differences(self):
        logits, labels = rand_case(0)
        _, grad = bce_loss(logits, labels)
        fd = fd_grad(lambda lg: bce_loss(lg, labels)[0], logits)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            bce_loss(np.zeros((2, 2)), np.ones((2, 3), dtype=int))

    def test_nonnegative(self):
        logits, labels = rand_case(1)
        assert bce_loss(logits, labels)[0] >= 0.0

    def test_bit_identical_to_float_label_form(self):
        rng = np.random.default_rng(16)
        special = np.array([0.0, -0.0, 800.0, -800.0, 1e-320, -1e-320, 40.0, -40.0])
        for shape in ((1, 1), (2, 10), (64, 10), (7, 3)):
            logits = rng.normal(scale=float(rng.choice([0.1, 3.0, 50.0])), size=shape)
            logits.flat[: special.size] = special[: logits.size]
            for labels in (
                np.where(rng.random(shape) < 0.5, 1, -1).astype(np.int8),
                np.ones(shape, dtype=int),
                -np.ones(shape),
            ):
                value, grad = bce_loss(logits, labels)
                ref_value, ref_grad = reference_bce_loss(logits, labels)
                assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
                assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_logit_rejected(self, bad):
        logits = np.zeros((2, 2))
        logits[1, 0] = bad
        with pytest.raises(ValueError, match="logits contains non-finite entries"):
            bce_loss(logits, np.ones((2, 2), dtype=int))


class TestFocal:
    def test_gamma_zero_equals_bce(self):
        logits, labels = rand_case(2)
        f_value, f_grad = focal_loss(logits, labels, 0.0)
        b_value, b_grad = bce_loss(logits, labels)
        assert f_value == pytest.approx(b_value, abs=1e-12)
        assert np.abs(f_grad - b_grad).max() < 1e-12

    def test_saturated_correct_is_tiny(self):
        value, _ = focal_loss(np.array([[20.0]]), np.array([[1]]), 2.0)
        assert value < 1e-8

    def test_gradient_matches_finite_differences(self):
        logits, labels = rand_case(3)
        _, grad = focal_loss(logits, labels, 2.0)
        fd = fd_grad(lambda lg: focal_loss(lg, labels, 2.0)[0], logits)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-5

    def test_dominated_by_bce(self):
        logits, labels = rand_case(4, n=8, c=5)
        assert focal_loss(logits, labels, 2.0)[0] <= bce_loss(logits, labels)[0]

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            focal_loss(np.zeros((1, 1)), np.array([[1]]), -0.5)


def test_sigmoid_stable_and_bounded():
    x = np.array([-800.0, -20.0, 0.0, 20.0, 800.0])
    p = sigmoid(x)
    assert np.isfinite(p).all()
    assert (p >= 0.0).all() and (p <= 1.0).all()
    assert p[2] == 0.5


def masked_sigmoid(x):
    """The earlier form of ``sigmoid``: split by sign with two masks, exp on
    each part, scatter back. Kept as the reference for bit-equality."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bit_identical_to_masked_form():
    rng = np.random.default_rng(15)
    finfo = np.finfo(np.float64)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
               1e-320, -1e-320, finfo.max, -finfo.max, finfo.tiny, -finfo.tiny,
               finfo.smallest_subnormal, -finfo.smallest_subnormal, 709.8, -745.2]
    x = np.concatenate([
        rng.integers(0, 2**64, size=40_000, dtype=np.uint64).view(np.float64),
        rng.normal(scale=10.0, size=40_000),
        special,
    ]).reshape(-1, 2)
    assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()
    assert sigmoid(x).shape == x.shape
