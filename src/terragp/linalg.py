"""Cholesky factorization in place, with the shared jitter-escalation
policy, and the solves, inverses and products on its factors.

`chol_with_jitter` is the one entry point of every dense factorization;
callers look it up at call time, so a tracer that rebinds it sees every
call.  It overwrites a symmetric matrix with its factor and restores a
failed attempt from the matrix's mirror triangle, so neither a first
attempt nor a retry allocates an n x n array.

Every triangular inverse, L^-1 (`tri_inverse`) and the (L L^T)^-1 of
`chol_inverse`, runs through one recursive blocked inverse (Elmroth,
Gustavson, Jonsson and Kagstrom, SIAM Review 46(1), 2004): it halves
the triangle down to leaves of `_TRI_LEAF`, which LAPACK dtrtri inverts,
and joins the halves with BLAS dtrmm.  On a 1-thread OpenBLAS 0.3.31
(shared 2-core Xeon, CPU ms, medians of 15) dtrtri itself took 0.82 ms
at n = 256 (7 Gflop/s), 17 ms at n = 1024 and 42 ms at n = 1536, where
the recursion took 0.30, 8.2 and 25 ms for the same flops.  The
factorization (dpotrf) and dpotri's second half (dlauum) stay LAPACK's
own: recursive versions of both were slower (13.1 against 11.6 ms and
8.5 against 7.4 ms at n = 1024)."""

from __future__ import annotations

from ctypes import (
    CFUNCTYPE, POINTER, PYFUNCTYPE, byref, c_char_p, c_double, c_int, c_void_p, py_object,
    pythonapi,
)
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_solve, cython_blas, cython_lapack, solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dlauum, dpotrf

from .errors import IllConditionedKernelError

JITTER_START = 1e-8
JITTER_CEILING = 1e-3


def chol_with_jitter(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the symmetric `mat`, written over it,
    adding the smallest jitter that works.

    Tries jitter 0 first, then 1e-8 escalating by 10x up to 1e-3; past
    the ceiling an IllConditionedKernelError is raised.  LAPACK dpotrf
    reads the lower triangle of a Fortran-ordered `mat` (the upper one of
    a C-ordered `mat`, through its transpose) and writes the factor over
    it; any other layout is copied first.  The finite scan is done once
    here, on that layout, a panel of columns at a time.  A failed attempt
    has overwritten part of that triangle, so before each retry it is
    restored from the intact mirror triangle and the saved diagonal: a
    retry costs n doubles, not an n x n array.  The returned factor
    shares `mat`'s memory and has a zero strict upper triangle, as
    scipy's `cholesky` would give it.
    """
    if not mat.flags.f_contiguous:
        mat = mat.T if mat.flags.c_contiguous else np.asfortranarray(mat)
    if not _all_finite(mat.T):
        raise IllConditionedKernelError("matrix contains non-finite values")
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


def _all_finite(C: np.ndarray) -> bool:
    """Whether every entry of the C-ordered C is finite, scanned a row
    panel at a time, so the scan's booleans are panel-sized."""
    return all(np.isfinite(C[i : i + _PANEL]).all() for i in range(0, C.shape[0], _PANEL))


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


def _fortran_routine(module, name: str, *argtypes):
    """`name` from scipy's Cython BLAS or LAPACK `module`, as a ctypes
    function.  Those routines take every argument by pointer, so a block
    of a Fortran-ordered array goes in place as the address of its first
    entry with the array's leading dimension; scipy's Python wrappers
    would copy any block that is not itself contiguous."""
    capsule = module.__pyx_capi__[name]
    get_name = PYFUNCTYPE(c_char_p, py_object)(("PyCapsule_GetName", pythonapi))
    get_pointer = PYFUNCTYPE(c_void_p, py_object, c_char_p)(("PyCapsule_GetPointer", pythonapi))
    return CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT = POINTER(c_int)
# dtrmm(side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb)
_dtrmm = _fortran_routine(
    cython_blas, "dtrmm", c_char_p, c_char_p, c_char_p, c_char_p, _INT, _INT,
    POINTER(c_double), c_void_p, _INT, c_void_p, _INT,
)
# dtrtri(uplo, diag, n, a, lda, info)
_dtrtri = _fortran_routine(cython_lapack, "dtrtri", c_char_p, c_char_p, _INT, c_void_p, _INT, _INT)

# Order of the leaves of `_invert_lower`, which LAPACK dtrtri inverts.
# On a 1-thread OpenBLAS leaves of 32, 64, 128 and 256 were timed at
# n = 256, 512, 1024 and 1536; 64 was the fastest or within the spread
# at every size.
_TRI_LEAF = 64


def _invert_lower(A: np.ndarray) -> int:
    """Overwrite the lower triangle of the Fortran-ordered square A with
    its inverse and return 0, or return the 1-based index of the first
    zero on its diagonal, as dtrtri's info, with the triangle partly
    overwritten.  The strict upper triangle is not touched."""
    if not (
        A.dtype == np.float64 and A.ndim == 2 and A.shape[0] == A.shape[1]
        and A.flags.f_contiguous and A.flags.writeable
    ):
        raise ValueError("expected a writeable square Fortran-ordered float64 array")
    n = A.shape[0]
    return _invert_block(A.ctypes.data, max(n, 1), 0, n)


def _invert_block(base: int, ld: int, o: int, k: int) -> int:
    """`_invert_lower` of the diagonal block A[o:o + k, o:o + k] of the
    Fortran-ordered float64 A at address `base` with leading dimension
    `ld`; its info counts from the block's first row.

    A block of k > _TRI_LEAF rows is split at h = k // 2 into
    [[P, 0], [C, D]]; both diagonal blocks are inverted in place, then
    C <- -D^-1 C P^-1 by two dtrmm calls.  Every call reads and writes
    its blocks in place in A, so there is no scratch array."""

    def entry(i, j):
        return base + 8 * (i + j * ld)

    lda = byref(c_int(ld))
    if k <= _TRI_LEAF:
        info = c_int(0)
        _dtrtri(b"L", b"N", byref(c_int(k)), entry(o, o), lda, byref(info))
        return info.value
    h = k // 2
    info = _invert_block(base, ld, o, h)
    if info:
        return info
    info = _invert_block(base, ld, o + h, k - h)
    if info:
        return h + info
    rows, cols = byref(c_int(k - h)), byref(c_int(h))
    # C <- C P^-1, then C <- -D^-1 C
    _dtrmm(b"R", b"L", b"N", b"N", rows, cols, byref(c_double(1.0)),
           entry(o, o), lda, entry(o + h, o), lda)
    _dtrmm(b"L", b"L", b"N", b"N", rows, cols, byref(c_double(-1.0)),
           entry(o + h, o + h), lda, entry(o + h, o), lda)
    return 0


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """Lower triangle of (L L^T)^-1 in place of a Fortran-ordered `L`
    (upper left as is): L^-1 by `_invert_lower`, then LAPACK dlauum,
    which is dpotri's own second half, forms L^-T L^-1 from it.  Any
    other layout is copied first."""
    L = np.asfortranarray(L)
    info = _invert_lower(L)
    if info == 0:
        L, info = dlauum(L, lower=1, overwrite_c=1)
    if info != 0:
        raise IllConditionedKernelError(f"inverting the Cholesky factor failed (info {info})")
    return L


def tri_inverse(L: np.ndarray, overwrite_l: bool = False) -> np.ndarray:
    """L^-1 of a lower-triangular L by `_invert_lower`: a new
    Fortran-ordered array whose strict upper triangle is as in `L`, or,
    with `overwrite_l`, the Fortran-ordered `L` itself, inverted in place."""
    inv = L if overwrite_l else np.array(L, order="F")
    info = _invert_lower(inv)
    if info != 0:
        raise IllConditionedKernelError(f"inverting the triangular factor failed (info {info})")
    return inv


def tri_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L^T x = b for lower-triangular L; as in `chol_solve`, the
    finite scan is skipped."""
    return solve_triangular(L, b, lower=True, trans="T", check_finite=False)


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
