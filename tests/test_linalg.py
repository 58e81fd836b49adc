import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky
from scipy.linalg.lapack import dpotri, dtrtri

from terragp import linalg
from terragp.errors import IllConditionedKernelError
from terragp.linalg import (
    chol_inverse, chol_solve, chol_with_jitter, tri_inverse, tri_matmul, tri_solve,
)

from helpers import peak_bytes


def reference_jitter(M):
    """The jitter the escalation policy settles on, by scipy's copying
    `cholesky` of M + jitter I."""
    jitter = 0.0
    while True:
        try:
            cholesky(M + jitter * np.eye(M.shape[0]), lower=True)
            return jitter
        except np.linalg.LinAlgError:
            jitter = 1e-8 if jitter == 0.0 else jitter * 10.0


class TestCholWithJitter:
    def test_pd_matrix_uses_no_jitter(self, rng):
        A = rng.normal(size=(6, 6))
        M = A @ A.T + 6 * np.eye(6)
        L, jitter = chol_with_jitter(M.copy())
        assert jitter == 0.0
        np.testing.assert_allclose(L @ L.T, M, atol=1e-10)

    def test_singular_matrix_escalates(self):
        # rank-1 PSD matrix: exact Cholesky fails, jitter rescues it
        v = np.array([1.0, 2.0, 3.0])
        M = np.outer(v, v)
        L, jitter = chol_with_jitter(M.copy())
        assert 0.0 < jitter <= 1e-3
        np.testing.assert_allclose(L @ L.T, M + jitter * np.eye(3), atol=1e-9)

    def test_indefinite_matrix_fails_past_ceiling(self):
        M = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(IllConditionedKernelError, match="ceiling"):
            chol_with_jitter(M)

    def test_non_finite_matrix_rejected(self):
        M = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(IllConditionedKernelError, match="non-finite"):
            chol_with_jitter(M)

    def test_solvers_agree_with_dense(self, rng):
        A = rng.normal(size=(5, 5))
        M = A @ A.T + 5 * np.eye(5)
        b = rng.normal(size=5)
        L, _ = chol_with_jitter(M.copy())
        np.testing.assert_allclose(chol_solve(L, b), np.linalg.solve(M, b), atol=1e-10)
        np.testing.assert_allclose(tri_solve(L, b), np.linalg.solve(L.T, b), atol=1e-10)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 5, 127, 128, 129, 300])
    def test_factor_is_written_over_the_input(self, rng, n, order):
        A = rng.normal(size=(n, n))
        M = np.asarray(A @ A.T / n + np.eye(n), order=order)
        before = M.copy()
        L, jitter = chol_with_jitter(M)
        assert jitter == 0.0 and np.shares_memory(L, M)
        assert np.all(np.triu(L, 1) == 0.0)
        # bitwise scipy's copying factor of the same triangle
        np.testing.assert_array_equal(L, cholesky(before.T, lower=True))
        np.testing.assert_allclose(L @ L.T, before, rtol=1e-13, atol=1e-13)

    def test_non_contiguous_input_is_copied_and_left_as_it_is(self, rng):
        A = rng.normal(size=(9, 9))
        M = A @ A.T + 9 * np.eye(9)
        before = M.copy()
        L, _ = chol_with_jitter(M[::-1, ::-1])
        np.testing.assert_array_equal(M, before)
        np.testing.assert_allclose(L @ L.T, before[::-1, ::-1], rtol=1e-13)

    @pytest.mark.parametrize("n", [3, 200])
    def test_rank_one_restores_the_input_before_each_retry(self, n, monkeypatch):
        v = np.linspace(1.0, 3.0, n)
        M = np.outer(v, v)
        before = M.copy()
        seen = []
        real = linalg.dpotrf

        def recording(a, **kwargs):
            seen.append(a.copy())
            return real(a, **kwargs)

        monkeypatch.setattr(linalg, "dpotrf", recording)
        L, jitter = chol_with_jitter(M)
        assert jitter == reference_jitter(before) > 0.0
        # attempt k saw the input plus the k-th jitter of the ladder, bitwise
        ladder = [0.0] + [1e-8 * 10.0**k for k in range(len(seen) - 1)]
        assert ladder[-1] == jitter
        for attempt, step in zip(seen, ladder):
            want = before.copy()
            want[np.diag_indices(n)] += step
            np.testing.assert_array_equal(attempt, want.T)
        np.testing.assert_allclose(L @ L.T, before + jitter * np.eye(n), atol=1e-9)

    def test_retry_allocates_no_n_by_n_array(self):
        # the scipy-copy form held the copy, the identity and the shifted
        # matrix; the restore from the mirror takes panel-sized temporaries
        n = 256
        v = np.linspace(1.0, 3.0, n)
        M = np.outer(v, v)
        assert chol_with_jitter(M.copy())[1] > 0.0
        assert peak_bytes(chol_with_jitter, M) < n * n * 8

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_finite_scan_is_panel_sized(self, rng, order):
        # the whole-matrix np.isfinite held n x n booleans, n^2 / 8 doubles
        n = 1024
        A = rng.normal(size=(n, n))
        M = np.asarray(A @ A.T / n + np.eye(n), order=order)
        assert peak_bytes(chol_with_jitter, M) <= 2 * linalg.ROW_PANEL * n

    def test_non_finite_entry_in_a_later_panel_rejected(self, rng):
        n = 2 * linalg.ROW_PANEL + 3
        M = np.eye(n)
        M[n - 1, n - 2] = M[n - 2, n - 1] = np.inf
        with pytest.raises(IllConditionedKernelError, match="non-finite"):
            chol_with_jitter(M)


# around the leaves of the recursive inverse, which are 64 rows
INVERSE_SIZES = [1, 63, 64, 65, 127, 129, 300]


def lower_factor(rng, m):
    return np.tril(rng.normal(size=(m, m)) * 0.3, -1) + np.diag(1.0 + rng.random(m))


def well_conditioned_factor(rng, n):
    """A Fortran-ordered Cholesky factor of A A^T / n + I (cond(L) below
    about 3), with random entries in its strict upper triangle, which no
    inverse may read or change."""
    A = rng.normal(size=(n, n))
    L = cholesky(A @ A.T / n + np.eye(n), lower=True)
    return np.asfortranarray(L + np.triu(rng.normal(size=(n, n)), 1))


def as_layout(M, layout):
    if layout == "strided":
        big = np.zeros((2 * M.shape[0], 2 * M.shape[1]))
        big[::2, ::2] = M
        return big[::2, ::2]
    return np.asarray(M, order=layout)


def check_inverse(inv, L):
    """inv L = I to 1e-13 on the lower triangles, and the strict upper
    triangle as in L."""
    n = L.shape[0]
    assert np.abs(np.tril(inv) @ np.tril(L) - np.eye(n)).max() <= 1e-13
    np.testing.assert_array_equal(np.triu(inv, 1), np.triu(L, 1))


class TestCholInverse:
    def test_lower_triangle_of_the_inverse(self, rng):
        A = rng.normal(size=(6, 6))
        M = A @ A.T + 6 * np.eye(6)
        L, _ = chol_with_jitter(M.copy())
        inv = chol_inverse(L)
        np.testing.assert_allclose(np.tril(inv), np.tril(np.linalg.inv(M)), atol=1e-12)
        assert np.all(np.triu(inv, 1) == 0.0)

    def test_singular_factor_rejected(self):
        L = np.asfortranarray([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(IllConditionedKernelError, match="inverting"):
            chol_inverse(L)

    @pytest.mark.parametrize("n", INVERSE_SIZES)
    def test_matches_lapack_dpotri_in_place(self, rng, n):
        L = well_conditioned_factor(rng, n)
        want, info = dpotri(L, lower=1)
        assert info == 0
        F = L.copy(order="F")
        got = chol_inverse(F)
        assert np.shares_memory(got, F)
        assert np.abs(np.tril(got - want)).max() <= 1e-13 * np.abs(want).max()
        np.testing.assert_array_equal(np.triu(got, 1), np.triu(L, 1))


class TestRecursiveInverse:
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", INVERSE_SIZES)
    def test_tri_inverse(self, rng, n, layout):
        L0 = well_conditioned_factor(rng, n)
        L = as_layout(L0, layout)
        inv = tri_inverse(L)
        assert not np.shares_memory(inv, L)
        np.testing.assert_array_equal(L, L0)
        check_inverse(inv, L0)
        # LAPACK dtrtri on the whole triangle, to rounding
        want, _ = dtrtri(L0, lower=1)
        assert np.abs(np.tril(inv - want)).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 65, 300])
    def test_overwrite_inverts_in_place(self, rng, n):
        """With `overwrite_l` a Fortran-ordered L becomes its own inverse,
        bitwise the copy's, with a few KiB of call overhead (the copy of
        L at n = 300 is 703 KiB)."""
        L = well_conditioned_factor(rng, n).copy(order="F")
        want = tri_inverse(L)
        assert peak_bytes(tri_inverse, L, True) <= 4096
        np.testing.assert_array_equal(L, want)
        with pytest.raises(ValueError, match="Fortran-ordered"):
            tri_inverse(np.ascontiguousarray(want), overwrite_l=True)

    def test_zero_pivot_reported_at_its_index_in_the_whole_matrix(self, rng):
        # index 100 of 130 lies in the leaf of rows 98..130
        L = well_conditioned_factor(rng, 130)
        L[99, 99] = 0.0
        message = r"inverting the {} factor failed \(info 100\)"
        with pytest.raises(IllConditionedKernelError, match=message.format("triangular")):
            tri_inverse(L)
        with pytest.raises(IllConditionedKernelError, match=message.format("Cholesky")):
            chol_inverse(L.copy(order="F"))

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_inverse_property(self, n, seed):
        L = well_conditioned_factor(np.random.default_rng(seed), n)
        check_inverse(tri_inverse(L), L)


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
