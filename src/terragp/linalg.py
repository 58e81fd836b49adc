"""Cholesky factorization with the shared jitter-escalation policy."""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky, cho_solve, solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotri, dtrtri

from .errors import IllConditionedKernelError

JITTER_START = 1e-8
JITTER_CEILING = 1e-3


def chol_with_jitter(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of `mat`, adding the smallest jitter that works.

    Tries jitter 0 first, then 1e-8 escalating by 10x up to 1e-3; past
    the ceiling an IllConditionedKernelError is raised.  The finite scan
    is done once here, and a jittered copy of a finite matrix stays
    finite, so scipy's own scan is skipped.
    """
    if not np.all(np.isfinite(mat)):
        raise IllConditionedKernelError("matrix contains non-finite values")
    jitter = 0.0
    while True:
        try:
            shifted = mat if jitter == 0.0 else mat + jitter * np.eye(mat.shape[0])
            return cholesky(shifted, lower=True, check_finite=False), jitter
        except np.linalg.LinAlgError:
            jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
            if jitter > JITTER_CEILING * (1.0 + 1e-12):
                raise IllConditionedKernelError(
                    f"Cholesky failed at jitter ceiling {JITTER_CEILING:g}"
                ) from None


def chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b given the lower factor."""
    return cho_solve((L, True), b)


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
    """Solve L x = b for lower-triangular L."""
    return solve_triangular(L, b, lower=True)


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
