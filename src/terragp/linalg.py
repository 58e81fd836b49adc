"""Cholesky factorization in place, with the shared jitter-escalation
policy, and the solves, inverses and products on its factors.

`chol_with_jitter` is the one entry point of every dense factorization;
callers look it up at call time, so a tracer that rebinds it sees every
call.  It overwrites a symmetric matrix with its factor and restores a
failed attempt from the matrix's mirror triangle, so neither a first
attempt nor a retry allocates an n x n array."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dpotri, dtrtri

from .errors import IllConditionedKernelError

JITTER_START = 1e-8
JITTER_CEILING = 1e-3


def chol_with_jitter(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the symmetric `mat`, written over it,
    adding the smallest jitter that works.

    Tries jitter 0 first, then 1e-8 escalating by 10x up to 1e-3; past
    the ceiling an IllConditionedKernelError is raised.  The finite scan
    is done once here.  LAPACK dpotrf reads the lower triangle of a
    Fortran-ordered `mat` (the upper one of a C-ordered `mat`, through
    its transpose) and writes the factor over it; any other layout is
    copied first.  A failed attempt has overwritten part of that
    triangle, so before each retry it is restored from the intact
    mirror triangle and the saved diagonal: a retry costs n doubles, not
    an n x n array.  The returned factor shares `mat`'s memory and has a
    zero strict upper triangle, as scipy's `cholesky` would give it.
    """
    if not np.all(np.isfinite(mat)):
        raise IllConditionedKernelError("matrix contains non-finite values")
    if not mat.flags.f_contiguous:
        mat = mat.T if mat.flags.c_contiguous else np.asfortranarray(mat)
    diag = mat.diagonal().copy()
    jitter = 0.0
    while True:
        L, info = dpotrf(mat, lower=1, overwrite_a=1, clean=0)
        if info == 0:
            _zero_strict_lower(L.T)
            return L, jitter
        jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
        if jitter > JITTER_CEILING * (1.0 + 1e-12):
            raise IllConditionedKernelError(
                f"Cholesky failed at jitter ceiling {JITTER_CEILING:g}"
            ) from None
        mirror_strict_lower(mat.T)
        mat[np.diag_indices_from(mat)] = diag + jitter


# rows per panel of the triangle copies below
_PANEL = 128


@lru_cache(maxsize=8)
def strict_lower_mask(m: int) -> np.ndarray:
    """Read-only boolean mask of the strict lower triangle of an m x m
    array; indexing with it walks the entries in row-major order."""
    mask = np.tri(m, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _zero_strict_lower(C: np.ndarray) -> None:
    """Zero the strict lower triangle of a C-ordered square C, the strict
    upper one of the Fortran-ordered C.T, a row panel at a time."""
    n = C.shape[0]
    for i in range(0, n, _PANEL):
        k = min(n, i + _PANEL)
        C[i:k, :i] = 0.0
        np.copyto(C[i:k, i:k], 0.0, where=strict_lower_mask(k - i))


def mirror_strict_lower(C: np.ndarray) -> None:
    """Copy the strict lower triangle of a C-ordered square C onto its
    strict upper one: for the Fortran-ordered C.T, its strict upper
    triangle onto its lower one.  A row panel at a time, so the
    temporaries are panel-sized."""
    n = C.shape[0]
    for i in range(0, n, _PANEL):
        k = min(n, i + _PANEL)
        C[i:k, k:] = C[k:, i:k].T
        block = C[i:k, i:k]
        np.copyto(block, block.T, where=strict_lower_mask(k - i).T)


def chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b given the lower factor.  Its callers pass
    factors that `chol_with_jitter` has scanned and finite right-hand
    sides, so scipy's finite scan is skipped."""
    return cho_solve((L, True), b, check_finite=False)


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """Lower triangle of (L L^T)^-1 by LAPACK dpotri, in place of `L` (upper left as is)."""
    inv, info = dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise IllConditionedKernelError(f"inverting the Cholesky factor failed (info {info})")
    return inv


def tri_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 of a lower-triangular L by LAPACK dtrtri (strict upper triangle as in `L`)."""
    inv, info = dtrtri(L, lower=1)
    if info != 0:
        raise IllConditionedKernelError(f"inverting the triangular factor failed (info {info})")
    return inv


def tri_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for lower-triangular L; as in `chol_solve`, the
    finite scan is skipped."""
    return solve_triangular(L, b, lower=True, check_finite=False)


def tri_matmul(
    M: np.ndarray, L: np.ndarray, trans: bool = False, overwrite_m: bool = False
) -> np.ndarray:
    """M L, or M L^T with `trans`, for lower-triangular L by BLAS dtrmm
    (half the flops of a general product).  A C-ordered M is read in
    place as the Fortran-ordered M^T, a C-ordered L as the
    upper-triangular L^T and a Fortran-ordered L as itself; with
    `overwrite_m` the product is written over a C-ordered M."""
    A, lower, trans_a = (L.T, 0, trans) if L.flags.c_contiguous else (L, 1, not trans)
    return dtrmm(1.0, A, M.T, lower=lower, trans_a=int(trans_a), overwrite_b=int(overwrite_m)).T
