import numpy as np
import pytest

from terragp.errors import IllConditionedKernelError
from terragp.linalg import (
    chol_inverse, chol_solve, chol_with_jitter, tri_inverse, tri_matmul, tri_solve,
)


class TestCholWithJitter:
    def test_pd_matrix_uses_no_jitter(self, rng):
        A = rng.normal(size=(6, 6))
        M = A @ A.T + 6 * np.eye(6)
        L, jitter = chol_with_jitter(M)
        assert jitter == 0.0
        np.testing.assert_allclose(L @ L.T, M, atol=1e-10)

    def test_singular_matrix_escalates(self):
        # rank-1 PSD matrix: exact Cholesky fails, jitter rescues it
        v = np.array([1.0, 2.0, 3.0])
        M = np.outer(v, v)
        L, jitter = chol_with_jitter(M)
        assert 0.0 < jitter <= 1e-3
        np.testing.assert_allclose(L @ L.T, M + jitter * np.eye(3), atol=1e-9)

    def test_indefinite_matrix_fails_past_ceiling(self):
        M = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(IllConditionedKernelError):
            chol_with_jitter(M)

    def test_non_finite_matrix_rejected(self):
        M = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(IllConditionedKernelError, match="non-finite"):
            chol_with_jitter(M)

    def test_solvers_agree_with_dense(self, rng):
        A = rng.normal(size=(5, 5))
        M = A @ A.T + 5 * np.eye(5)
        b = rng.normal(size=5)
        L, _ = chol_with_jitter(M)
        np.testing.assert_allclose(chol_solve(L, b), np.linalg.solve(M, b), atol=1e-10)
        np.testing.assert_allclose(tri_solve(L, b), np.linalg.solve(L, b), atol=1e-10)


class TestCholInverse:
    def test_lower_triangle_of_the_inverse(self, rng):
        A = rng.normal(size=(6, 6))
        M = A @ A.T + 6 * np.eye(6)
        L, _ = chol_with_jitter(M)
        inv = chol_inverse(L)
        np.testing.assert_allclose(np.tril(inv), np.tril(np.linalg.inv(M)), atol=1e-12)
        assert np.all(np.triu(inv, 1) == 0.0)

    def test_singular_factor_rejected(self):
        L = np.asfortranarray([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(IllConditionedKernelError, match="inverting"):
            chol_inverse(L)


def lower_factor(rng, m):
    return np.tril(rng.normal(size=(m, m)) * 0.3, -1) + np.diag(1.0 + rng.random(m))


class TestTriangularHelpers:
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_inverse(self, rng, m):
        L = lower_factor(rng, m)
        inv = tri_inverse(L)
        assert np.all(np.triu(inv, 1) == 0.0)
        np.testing.assert_allclose(inv @ L, np.eye(m), atol=1e-13)

    def test_singular_triangle_rejected(self):
        with pytest.raises(IllConditionedKernelError, match="inverting"):
            tri_inverse(np.array([[1.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("trans", [False, True])
    def test_matmul_matches_dense_product(self, rng, trans):
        for order in "CF":  # L read as L^T or as itself
            L = np.asarray(lower_factor(rng, 7), order=order)
            M = rng.normal(size=(5, 7))
            want = M @ (L.T if trans else L)
            np.testing.assert_allclose(tri_matmul(M, L, trans=trans), want, rtol=1e-13, atol=1e-14)
            got = tri_matmul(M, L, trans=trans, overwrite_m=True)
            assert np.shares_memory(got, M)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)
