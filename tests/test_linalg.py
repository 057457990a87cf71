"""SVD, nuclear norm, and subgradient tests against independent oracles."""

import numpy as np
import pytest

from jacobi_oracle import jacobi_singular_values
from nucontrast.linalg import DimensionError, nuclear_norm, nuclear_subgradient, svd


def fd_nuclear_gradient(a, step=1e-5):
    """Central-difference gradient of the nuclear norm, one entry at a time."""
    g = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            hi = a.copy()
            lo = a.copy()
            hi[i, j] += step
            lo[i, j] -= step
            g[i, j] = (nuclear_norm(hi) - nuclear_norm(lo)) / (2 * step)
    return g


def well_separated(a, margin=0.05):
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0 or s[-1] / s[0] < margin:
        return False
    return len(s) == 1 or (-np.diff(s / s[0])).min() > margin


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 1.0]))
        assert np.allclose(res.s, [3.0, 1.0])
        assert np.allclose(res.u, np.eye(2))
        assert np.allclose(res.v, np.eye(2))

    def test_zero_matrix(self):
        res = svd(np.zeros((2, 2)))
        assert np.array_equal(res.s, [0.0, 0.0])
        assert np.allclose(res.u.T @ res.u, np.eye(2))
        assert np.allclose(res.v.T @ res.v, np.eye(2))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 3))
        u, s, v = svd(a)
        err = np.linalg.norm(u * s @ v.T - a) / np.linalg.norm(a)
        assert err < 1e-9

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (7, 3), (3, 7), (10, 2)])
    def test_invariants_random_shapes(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = rng.normal(size=shape)
        u, s, v = svd(a)
        r = min(shape)
        assert u.shape == (shape[0], r)
        assert v.shape == (shape[1], r)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        assert np.abs(u.T @ u - np.eye(r)).max() < 1e-9
        assert np.abs(v.T @ v - np.eye(r)).max() < 1e-9
        assert np.linalg.norm(u * s @ v.T - a) <= 1e-9 * max(np.linalg.norm(a), 1)

    def test_rank_deficient(self):
        a = np.ones((4, 3))
        u, s, v = svd(a)
        assert np.allclose(s, [np.sqrt(12.0), 0.0, 0.0])
        assert np.abs(u.T @ u - np.eye(3)).max() < 1e-9
        assert np.linalg.norm(u * s @ v.T - a) < 1e-9 * np.linalg.norm(a)

    def test_deterministic(self):
        a = np.random.default_rng(3).normal(size=(6, 4))
        r1 = svd(a)
        r2 = svd(a)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.s, r2.s)
        assert np.array_equal(r1.v, r2.v)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        for shape in ((6, 4), (4, 6)):
            u, _, _ = svd(rng.normal(size=shape))
            for j in range(u.shape[1]):
                assert u[np.argmax(np.abs(u[:, j])), j] >= 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))
        with pytest.raises(DimensionError):
            svd(np.zeros((0, 3)))
        with pytest.raises(DimensionError):
            svd(np.zeros(3))

    def test_matches_lapack_singular_values(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.normal(size=(rng.integers(1, 20), rng.integers(1, 12)))
            s_ref = jacobi_singular_values(a)
            assert np.abs(svd(a).s - s_ref).max() < 1e-9 * max(s_ref[0], 1.0)

    def test_python_kernel_agrees(self):
        """The Jacobi oracle itself agrees with LAPACK."""
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.normal(size=(rng.integers(2, 20), rng.integers(2, 12)))
            s_ref = np.linalg.svd(a, compute_uv=False)
            assert np.abs(jacobi_singular_values(a) - s_ref).max() < 1e-9


class TestOneRowSvd:
    """One-row input takes the closed form s = [||a||], u = [[1]], v = a.T / ||a||."""

    def rows(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            yield rng.normal(size=(1, int(rng.integers(1, 40))))
        yield np.array([[3.0, -4.0]])
        yield np.array([[-2.0]])

    def test_matches_oracles(self):
        for a in self.rows():
            u, s, v = svd(a)
            s_jacobi = jacobi_singular_values(a)
            u_ref, s_ref, vh_ref = np.linalg.svd(a, full_matrices=False)
            assert abs(s[0] - s_jacobi[0]) <= 1e-15 * s_jacobi[0]
            assert abs(s[0] - s_ref[0]) <= 1e-15 * s_ref[0]
            # LAPACK's pair (u, v) up to one common sign
            assert np.abs(v.T - u_ref[0, 0] * vh_ref).max() <= 1e-15

    def test_shapes_and_sign_convention(self):
        for a in self.rows():
            u, s, v = svd(a)
            assert u.shape == (1, 1) and s.shape == (1,) and v.shape == (a.shape[1], 1)
            assert u[0, 0] == 1.0
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
            assert np.abs(u * s @ v.T - a).max() <= 1e-15 * s[0]

    def test_zero_row(self):
        for n in (1, 2, 7):
            u, s, v = svd(np.zeros((1, n)))
            assert u.tolist() == [[1.0]] and s.tolist() == [0.0]
            assert v.tolist() == np.eye(n, 1).tolist()
            u_ref, s_ref, vh_ref = np.linalg.svd(np.zeros((1, n)), full_matrices=False)
            assert np.array_equal(u_ref * vh_ref, v.T) and s_ref[0] == 0.0

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1.7e308])
    def test_no_overflow_or_underflow(self, scale):
        a = scale * np.array([[0.6, -0.8]])
        u, s, v = svd(a)
        assert s[0] == pytest.approx(scale, rel=1e-15)
        assert np.abs(v[:, 0] - [0.6, -0.8]).max() <= 1e-15

    def test_subnormal_row(self):
        # the squares underflow to zero, the norm does not
        a = np.array([[0.0, -1e-310, 5e-324]])
        u, s, v = svd(a)
        assert s[0] == np.linalg.svd(a, compute_uv=False)[0] == 1e-310
        assert v[:, 0].tolist() == [0.0, -1.0, 5e-324 / 1e-310]


class TestNuclearNorm:
    def test_identity(self):
        assert nuclear_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-12)

    def test_diagonal(self):
        assert nuclear_norm([[3.0, 0.0], [0.0, 4.0]]) == pytest.approx(7.0, abs=1e-12)

    def test_rank_one(self):
        assert nuclear_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)

    def test_empty_matrix_is_zero(self):
        assert nuclear_norm(np.zeros((0, 4))) == 0.0

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(5, 4))
            q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            assert abs(nuclear_norm(q @ a) - nuclear_norm(a)) < 1e-8

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(size=(5, 3))
            b = rng.normal(size=(5, 3))
            assert nuclear_norm(a + b) <= nuclear_norm(a) + nuclear_norm(b) + 1e-8

    def test_zero_row_padding_invariance(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 3))
        padded = np.vstack([a, np.zeros((3, 3))])
        assert abs(nuclear_norm(padded) - nuclear_norm(a)) < 1e-9


class TestNuclearSubgradient:
    def test_identity(self):
        assert np.allclose(nuclear_subgradient(np.eye(2), 1e-6), np.eye(2))

    def test_rank_one_diagonal(self):
        got = nuclear_subgradient(np.array([[2.0, 0.0], [0.0, 0.0]]), 1e-6)
        assert np.allclose(got, [[1.0, 0.0], [0.0, 0.0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(6, 4))
        while not well_separated(a):
            a = rng.normal(size=(6, 4))
        fd = fd_nuclear_gradient(a)
        got = nuclear_subgradient(a)
        assert np.abs(got - fd).max() / np.abs(fd).max() < 1e-4

    def test_entries_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = nuclear_subgradient(rng.normal(size=(5, 4)))
            assert np.abs(g).max() <= 1.0 + 1e-9

    def test_spectral_norm_at_most_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.normal(size=(6, 4))
            g = nuclear_subgradient(a)
            assert np.linalg.svd(g, compute_uv=False)[0] <= 1.0 + 1e-9

    def test_shape_and_empty(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 5))
        assert nuclear_subgradient(a).shape == (3, 5)
        assert nuclear_subgradient(np.zeros((0, 5))).shape == (0, 5)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            nuclear_subgradient(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            nuclear_subgradient(np.eye(2), -1.0)
