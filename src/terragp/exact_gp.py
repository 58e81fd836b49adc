"""Exact Gaussian-process regression.

Everything is computed through a Cholesky factor of K + diag(noise):
the log marginal likelihood, its analytic gradients in log-parameter
space, and the posterior predictive.  K is built on the one triangle
the Cholesky reads (`kernels.sym_gram`) and factored in place,
`linalg.chol_inverse` (a recursive blocked L^-1, then LAPACK dlauum)
overwrites the factor with one triangle of the inverse, and every
dK/dtheta is recomputed a row panel at a time against that triangle
(`kernels.sym_gradient_sums`).  So a training epoch holds one
n x n array and forms neither the full inverse, a a^T nor a whole
dK/dtheta; `build_model` holds one n x n array, the factor.

One exception: a model with an RBF kernel, one constant noise and the
points of a raster with M >= 0 of its N cells missing (hayner and
stage 1 on a raster) has K = s2 Ky (x) Kx on the whole grid for the 1-D
Grams of the two axes (Saatci 2012, ch. 5; Wilson et al. 2014).  Its
training epochs, its weights alpha and its predictive variance all come
from the eigendecompositions of those Grams (`_grid_basis`) with an
M x M Schur correction for the missing cells (`_Holes`), empty when
M = 0, as long as `_holes_pay` finds the path cheaper than the dense
one.  It holds no n x n array in fit, build, load or predict; its one
factor is the M x M Schur matrix's, taken through `chol_with_jitter`
like every other.  Likewise `predict_mean` with an RBF kernel on a
complete query grid takes the mean from two 1-D cross-Grams.

Off the grid, `predict_exact` forms the latent variance k** - |L^-1 K*|^2
from an explicit L^-1 (`linalg.tri_inverse`, once per call), multiplied
into each query panel's K* in place by BLAS dtrmm: the same n^2 q flops
as a triangular solve, at about twice its speed.  An inverse's error
grows with cond(L) (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 8 and 14), and here the noise, its floor and the jitter
bound it: cond(L) was 37 to 162 on the Table-1 scenes' exact models.  On
the grid the variance takes O(q n) flops from the query cross-Grams
rotated into the eigenbasis (`_grid_variance`), plus O(q M N) for
M holes among N cells.  The SVGP predicts
through the same loop, `_predict`, with the inverse of its factor Lz of
the floored inducing prior Kzz + 1e-6 s2 I (`svgp.KZZ_FLOOR`), which
bounds cond(Lz) by sqrt(1 + m / 1e-6), and `predict_mean` serves the
means of both model kinds.  Every query pass takes its rows a panel at a
time, sized in bytes (`_PANEL_BYTES` for the panel's widest array), so
a prediction holds L^-1, one panel and q-vectors, whatever q and n.  The
noise term is either a single learned variance (constant across space)
or a fixed per-point variance vector supplied by a noise model; both
flow through the same vector code path so the constant case is a strict
special case of the general one.
"""

from __future__ import annotations

import copy
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import dtrsm

from . import kernels
from .datasets import Dataset, grid_cells
from .errors import IllConditionedKernelError, TrainingDivergedError
from .linalg import chol_inverse, chol_solve, chol_with_jitter, row_panels, tri_inverse, tri_matmul
from .means import default_mean
from .methods import (
    LOG_NOISE_VARIANCE, MethodConfig, check_noise, init_kernel, noise_plan,
)
from .optim import minimize
from .seeding import INIT, stream_rng

MEAN_CONSTANT = "mean_constant"

# Bytes of the widest array one query panel holds: the panel takes
# _PANEL_BYTES // (8 width) rows for a width of n centres (or axis cells),
# rounded down to a multiple of _PANEL_ALIGN.  Small panels cost time:
# each dtrmm call packs the whole n x n triangle for its few rows.  On a
# 1-thread OpenBLAS 0.3.31 (RQ, CPU ms, medians of 9, interleaved) panels
# of 0.5, 1, 2, 4, 8 and 32 MiB took 534, 454, 446, 439, 436 and 458 to
# predict 16 384 queries of an exact n = 1024 model, and 418, 376, 355,
# 328, 324 and 328 for 6400 of an m = 1024 SVGP.  32 MiB is 4096 rows
# there; 4 MiB holds that speed at an eighth of the memory.
_PANEL_BYTES = 4 << 20

# Panel rows are a multiple of this.  OpenBLAS's kernels take query rows
# in fixed groups and send a panel's leftover rows through another kernel
# that rounds differently: dgemv_t, the mean's K* w, takes four rows at a
# time (on OpenBLAS 0.3.31), so panels of other sizes moved the last bits
# of the mean.  With panels a multiple of the group, every group falls
# where one pass over all the queries would put it.  dtrmm, the
# variance's L^-1 K*, takes twelve at a time; its leftover kernel rounded
# alike wherever n was a multiple of 8, and at other n it moved a few
# variances by up to 8e-16 of the outputscale.
_PANEL_ALIGN = 64

# Largest nx + ny of a query grid whose mean `_grid_mean` takes from its
# axis factors, which hold (nx + ny) n doubles: at most a 4096-row Gram.
# It is not a panel size; a bound of one panel would send a 128 x 128
# raster against n = 1024 centres (2 MiB of factors) to the dense path.
_GRID_MEAN_MAX_AXES = 4096


@dataclass
class ExactGpModel:
    kernel: kernels.KernelConfig
    mean_fn: object
    noise_var: np.ndarray  # (n,) effective variances, normalized units
    homoscedastic: bool
    X: np.ndarray
    Y: np.ndarray
    chol: np.ndarray | None  # None on a `_grid_basis` training grid
    alpha: np.ndarray
    loss_history: list = field(default_factory=list, repr=False, compare=False)

    def predict(self, Xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return predict_exact(self, Xn)

    def predict_mean(self, Xn: np.ndarray) -> np.ndarray:
        return predict_mean(self.kernel, self.mean_fn, self.X, self.alpha, Xn)

    def obs_noise(self, Xn: np.ndarray) -> float:
        return float(self.noise_var[0]) if self.homoscedastic else 0.0


def _factorize(K, X, Y, mean_fn, noise_vec):
    """(L, a, lml): L L^T = K + diag(noise) for a C-ordered
    symmetric K (`kernels.sym_gram`), the noise added to K and the factor
    written over it, and a = (L L^T)^-1 (Y - m(X))."""
    K.flat[:: K.shape[0] + 1] += noise_vec
    # the Fortran-ordered K.T is factored in place; `chol_with_jitter` is
    # looked up at call time, so a tracer that rebinds it sees every call
    L, _ = chol_with_jitter(K.T)
    resid = np.asarray(Y, dtype=float) - mean_fn(X)
    a = chol_solve(L, resid)
    n = a.size
    lml = float(-0.5 * resid @ a - np.log(np.diag(L)).sum() - 0.5 * n * np.log(2.0 * np.pi))
    return L, a, lml


def lml_gradients(
    X, Y, mean_fn, kernel, noise_var, noise_learned: bool = False
) -> tuple[float, dict[str, float]]:
    """LML and its gradients in log-parameter space.

    Each kernel hyperparameter gets 0.5 (a^T dK a - <Ky^-1, dK>), where
    a = Ky^-1 (Y - m(X)).  K is built on one triangle, factored in place
    and overwritten by the lower triangle of Ky^-1 (`chol_inverse`), so
    the epoch holds one n x n array.  Both matrices of the Frobenius product
    are symmetric, so it is twice the sum over that triangle minus the
    diagonal's, where only dK/dlog(s2) = s2 is nonzero.  Those sums and
    a^T dK a come from `kernels.sym_gradient_sums`, which recomputes
    each dK one row panel at a time.  A learned noise variance s2n gets
    0.5 s2n (a^T a - tr Ky^-1), the learned-constant mean sum(a).

    With an RBF kernel, one constant noise > 0 and X a grid
    (`datasets.grid_cells`) with M >= 0 holes, few enough for
    `_holes_pay`, `_grid_lml_gradients` gives the same values without an
    n x n matrix, unless the noise is too small for it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    noise_vec = check_noise(noise_var, X.shape[0])
    grid = _grid_lml_gradients(X, Y, mean_fn, kernel, noise_vec, noise_learned)
    if grid is not None:
        return grid
    L, a, lml = _factorize(kernels.sym_gram(kernel, X), X, Y, mean_fn, noise_vec)
    Kinv = chol_inverse(L)  # Fortran-ordered lower triangle: Kinv.T is C-ordered upper
    trace = float(Kinv.diagonal().sum())
    sums, quad = kernels.sym_gradient_sums(kernel, X, Kinv.T, a)
    grads: dict[str, float] = {}
    for name, tri in sums.items():
        diagonal = kernel.outputscale * trace if name == kernels.LOG_OUTPUTSCALE else 0.0
        grads[name] = 0.5 * (quad[name] - (2.0 * tri - diagonal))
    if noise_learned:
        # homoscedastic: dKy/d(log s2) = s2 * I
        grads[LOG_NOISE_VARIANCE] = 0.5 * float(noise_vec[0] * (a @ a - trace))
    if getattr(mean_fn, "learnable", False):
        grads[MEAN_CONSTANT] = float(np.sum(a))
    return lml, grads


# The Kronecker eigenbasis of K + s2n I on a product grid (xs, ys): the
# unit-scale 1-D Grams of the axes with their d/dlog(ell), their
# eigendecompositions, the ny x nx eigenvalues lam of K + s2n I, and the
# `_Holes` correction for the grid's missing cells
_GridBasis = namedtuple("_GridBasis", "xs ys Ky dKy Kx dKx ly Qy lx Qx lam holes")

# The M >= 0 missing cells of a grid.  With A = K + s2n I on the whole
# grid, C = A^-1 E_m its columns at the missing cells and S = C_mm = L_S
# L_S^T, the zero-padded inverse of the points' own K + s2n I is
# A^-1 - C S^-1 C^T (Rasmussen & Williams, GPML, 2006, App. A.3).  `cells`
# holds the points' flat indices in the ny x nx grid, `P` (M x nx ny) is
# L_S^-1 C^T rotated into the eigenbasis, and `logdet` is log|S|, so that
# log|K_oo + s2n I| = log|A| + log|S|.  For M = 0, P is 0 x nx ny and
# log|S| is 0.
_Holes = namedtuple("_Holes", "cells P logdet")


def _holes_pay(nx: int, ny: int, n: int) -> bool:
    """Whether n points of an nx x ny grid train faster on the holed grid
    path than on the dense one.

    With N = nx ny cells and M = N - n holes, a holed epoch costs about
    M N (M + nx + ny) flops (S, L_S^-1 C, and C's products with the axis
    Grams' derivatives) against n^3 for the dense factor, inverse and
    gradient sums.  On a 1-thread OpenBLAS 0.3.31 (shared 2-core Xeon,
    RBF with a learned noise, CPU ms, medians of 5) the holed and the
    dense epoch and build took:

        grid, M      cost ratio  holed epoch, build  dense epoch, build
        40 x 40, 64       0.004        4.0, 2.3          121, 56
        64 x 64, 96       0.001         11, 6.9         1478, 611
        40 x 40, 300      0.083         18, 15            74, 35
        7 x 7, 9          0.16         0.5, 0.3          0.4, 0.2
        16 x 16, 60       0.19         0.9, 0.7          1.8, 0.7
        24 x 24, 150      0.22         3.8, 2.4          7.4, 2.6
        64 x 64, 1200     0.27         413, 338          645, 268
        40 x 40, 500      0.35          39, 33            49, 24
        32 x 32, 384      0.67          18, 16            13, 6.0

    Above a few hundred points an epoch's time ratio ran at 2.3 to 3
    times the cost ratio and a build broke even near 0.25, so the path
    is taken up to a cost ratio of 1/4; below, both paths take under a
    millisecond.  That also bounds its memory: a holed epoch peaks at
    about 2 M N doubles, under 1.2 n^2 by this rule, where a dense RBF
    epoch peaks at 1.44 n^2.  The rule reads only nx, ny and n, so
    scattered points, whose N can reach n^2, are refused before anything
    of size N is formed.
    """
    N = nx * ny
    M = N - n
    return 4 * M * N * (M + nx + ny) <= n**3


def _holes(cells, Qy, Qx, lam) -> _Holes:
    """The `_Holes` correction for the points at `cells` of the grid with
    eigenvectors Qy, Qx and eigenvalues lam; a complete grid's is empty
    and factors nothing.  Missing cell k = (i, j) is e_k = Q (Qy[i] (x)
    Qx[j]) in the eigenbasis Q = Qy (x) Qx, so Q^T C_k = (Qy[i] (x)
    Qx[j]) / lam and S = V V^T for V_k = (Qy[i] (x) Qx[j]) / sqrt(lam).
    V, and P in its place, hold M N doubles; S and P take M^2 N flops
    each.  IllConditionedKernelError if S does not factor without
    jitter: it is then as ill-conditioned as the dense path's factor
    would be, and that path owns the jitter policy."""
    if cells.size == lam.size:
        return _Holes(cells, np.empty((0, lam.size)), 0.0)
    missing = np.ones(lam.size, dtype=bool)
    missing[cells] = False
    i, j = np.divmod(np.flatnonzero(missing), lam.shape[1])
    root = np.sqrt(lam)
    V = Qy[i][:, :, None] * Qx[j][:, None, :]
    V /= root
    V = V.reshape(i.size, lam.size)
    L, jitter = chol_with_jitter(V @ V.T)
    if jitter > 0.0:
        raise IllConditionedKernelError("the Schur matrix of the grid's holes needs jitter")
    V /= root.ravel()  # Q^T C, one row per missing cell
    # P^T = V^T L_S^-T, solved in place in the Fortran-ordered V^T
    P = dtrsm(1.0, L, V.T, side=1, lower=1, trans_a=1, overwrite_b=1).T
    return _Holes(cells, P, 2.0 * float(np.log(np.diag(L)).sum()))


def _grid_solve(basis: _GridBasis, resid):
    """(Rt, At, A) for the residual r of the grid's points: Rt = Qy^T R Qx
    for R the ny x nx residual (zero at missing cells), At = Rt / lam -
    P^T P Rt = Q^T (A^-1 - C S^-1 C^T) R the weights in the eigenbasis
    and A = Qy At Qx^T the weights on the grid, zero (to roundoff) at
    missing cells.  With no holes P is empty and A = (K + s2n I)^-1 R."""
    P = basis.holes.P
    padded = np.zeros(basis.lam.size)
    padded[basis.holes.cells] = resid
    Rt = basis.Qy.T @ padded.reshape(basis.lam.shape) @ basis.Qx
    At = Rt / basis.lam
    At -= (P.T @ (P @ Rt.ravel())).reshape(At.shape)
    return Rt, At, basis.Qy @ At @ basis.Qx.T


def _grid_basis(X, kernel, noise_vec) -> _GridBasis | None:
    """The eigenbasis of K + s2n I for an RBF kernel, one constant noise
    s2n > 0 and X a grid (`datasets.grid_cells`) with M >= 0 holes that
    `_holes_pay`, else None.  There K = s2 Ky (x) Kx on the whole grid
    for the unit-scale 1-D Grams of the axes, so K + s2n I = Q (s2
    ly (x) lx + s2n) Q^T with Q = Qy (x) Qx from their
    eigendecompositions, and an N-vector reshaped to ny x nx turns into
    that basis as Qy^T R Qx; the missing cells add the `_Holes`
    correction, empty for M = 0.  Below a smallest eigenvalue of N eps
    times the largest it returns None and the dense path, which owns the
    jitter policy, takes over; on RBF grids of 30 to 2304 points that
    path's Cholesky first needed jitter 300 times lower.  It returns None
    too if the holes' S does not factor without jitter.
    """
    if kernel.family != kernels.RBF or not noise_vec[0] > 0.0 or np.any(noise_vec != noise_vec[0]):
        return None
    grid = grid_cells(X)  # None for no points
    if grid is None:
        return None
    xs, ys, cells = grid
    if not _holes_pay(xs.size, ys.size, cells.size):
        return None
    sigma2 = noise_vec[0]
    unit = replace(kernel, log_outputscale=0.0)
    (Ky, dy), (Kx, dx) = (
        kernels.gram_and_gradients(unit, kernels.sq_dists(v[:, None], v[:, None]))
        for v in (ys, xs)  # ys index the rows of an ny x nx grid, xs its columns
    )
    (ly, Qy), (lx, Qx) = np.linalg.eigh(Ky), np.linalg.eigh(Kx)
    lam = kernel.outputscale * np.outer(ly, lx) + sigma2
    if lam.min() <= lam.size * np.finfo(float).eps * lam.max():
        return None
    try:
        holes = _holes(cells, Qy, Qx, lam)
    except IllConditionedKernelError:
        return None
    dKy, dKx = dy[kernels.LOG_LENGTHSCALE], dx[kernels.LOG_LENGTHSCALE]
    return _GridBasis(xs, ys, Ky, dKy, Kx, dKx, ly, Qy, lx, Qx, lam, holes)


def _grid_lml_gradients(X, Y, mean_fn, kernel, noise_vec, noise_learned):
    """`lml_gradients` in the eigenbasis of `_grid_basis`, else None.
    Each trace tr((K_oo + s2n I)^-1 dK) is the whole grid's minus
    tr(S^-1 C^T dK C) = sum_k p_k^T (Q^T dK Q) p_k over the M rows p_k of
    P, and the log-determinant adds log|S|; both corrections are 0 for
    M = 0."""
    basis = _grid_basis(X, kernel, noise_vec)
    if basis is None:
        return None
    _, _, Ky, dKy, Kx, dKx, ly, Qy, lx, Qx, lam, holes = basis
    s2, sigma2, n = kernel.outputscale, noise_vec[0], X.shape[0]
    S = s2 * np.outer(ly, lx)  # eigenvalues of K, ny x nx
    Rt, At, A = _grid_solve(basis, np.asarray(Y, dtype=float) - mean_fn(X))
    logdet = np.log(lam).sum()
    # dK/dlog(ell) = s2 (dKy (x) Kx + Ky (x) dKx); tr((K + s2n I)^-1 dK) from
    # the diagonals diag(Q^T dK1 Q) of the 1-D factors
    dly, dlx = (np.einsum("ij,ij->j", Q, dK @ Q) for Q, dK in ((Qy, dKy), (Qx, dKx)))
    quad = np.vdot(A, dKy @ A @ Kx) + np.vdot(A, Ky @ A @ dKx)
    trace = ((np.outer(dly, lx) + np.outer(ly, dlx)) / lam).sum()
    scale_trace = (S / lam).sum()
    noise_trace = (1.0 / lam).sum()
    # Q^T dK Q / s2 = (Qy^T dKy Qy) (x) diag(lx) + diag(ly) (x) (Qx^T dKx Qx)
    P = holes.P.reshape(-1, *lam.shape)
    E = (Qy.T @ dKy @ Qy) @ P
    E *= lx
    trace -= np.vdot(P, E)
    del E  # one M x N product at a time
    E = P @ (Qx.T @ dKx @ Qx)
    E *= ly[:, None]
    trace -= np.vdot(P, E)
    del E
    weight = np.einsum("kij,kij->ij", P, P)  # diag(C S^-1 C^T) in the eigenbasis
    scale_trace -= np.vdot(weight, S)
    noise_trace -= weight.sum()
    logdet += holes.logdet
    lml = float(-0.5 * np.vdot(At, Rt) - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi))
    grads = {
        kernels.LOG_LENGTHSCALE: 0.5 * s2 * float(quad - trace),
        kernels.LOG_OUTPUTSCALE: 0.5 * float(np.vdot(At * At, S) - scale_trace),
    }
    if noise_learned:
        grads[LOG_NOISE_VARIANCE] = 0.5 * float(sigma2 * (np.vdot(A, A) - noise_trace))
    if getattr(mean_fn, "learnable", False):
        grads[MEAN_CONSTANT] = float(np.sum(A))
    return lml, grads


def _grid_mean(kernel, mean_fn, centres, weights, Xstar):
    """`predict_mean` for an RBF kernel and a complete query grid (xs, ys)
    (`datasets.grid_cells` with no cell missing) with nx + ny <=
    `_GRID_MEAN_MAX_AXES`, else None.  With the unit-scale
    Ex = k1(xs, C[:, 0]) and Ey = k1(ys, C[:, 1]) for the centres C, the
    ny x nx mean is m + Ey (s2 w (.) Ex)^T: (nx + ny) c kernel entries and
    one gemm instead of q c entries."""
    grid = grid_cells(Xstar) if kernel.family == kernels.RBF else None
    if grid is None:
        return None
    xs, ys, cells = grid
    if cells.size != xs.size * ys.size or xs.size + ys.size > _GRID_MEAN_MAX_AXES:
        return None
    unit = replace(kernel, log_outputscale=0.0)
    Ex, Ey = (kernels.gram(unit, v[:, None], centres[:, d : d + 1]) for d, v in enumerate((xs, ys)))
    Ex *= kernel.outputscale * weights
    return mean_fn(Xstar) + (Ey @ Ex.T).ravel()


def build_model(X, Y, mean_fn, kernel, noise_var, homoscedastic) -> ExactGpModel:
    """Assemble a model with its weights alpha and, off `_grid_basis`'s
    inputs, its Cholesky factor.  On them alpha comes from the eigenbasis
    and `chol` is None: no n x n array is formed."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    noise_vec = check_noise(noise_var, X.shape[0])
    basis = _grid_basis(X, kernel, noise_vec)
    if basis is None:
        L, a, _ = _factorize(kernels.sym_gram(kernel, X), X, Y, mean_fn, noise_vec)
    else:
        L, a = None, _grid_solve(basis, Y - mean_fn(X))[2].ravel()[basis.holes.cells]
    return ExactGpModel(
        kernel=kernel,
        mean_fn=mean_fn,
        noise_var=noise_vec,
        homoscedastic=bool(homoscedastic),
        X=X,
        Y=Y,
        chol=L,
        alpha=a,
    )


def _panel_slices(q: int, width: int):
    """Slices of q query rows, one per panel of at most `_PANEL_BYTES` at
    `width` doubles per row, in a multiple of `_PANEL_ALIGN` rows (and at
    least that many).  A lone last row joins the panel before it: numpy
    hands a one-row product to dot, which rounds it unlike dgemv_t."""
    rows = _PANEL_BYTES // (8 * max(width, 1)) // _PANEL_ALIGN * _PANEL_ALIGN
    rows = max(rows, _PANEL_ALIGN)
    start = 0
    while start < q:
        stop = min(start + rows, q)
        if stop == q - 1:
            stop = q
        yield slice(start, stop)
        start = stop


def _panels(kernel, mean_fn, centres, weights, Xstar):
    """(slice, K(centres, panel), posterior mean m + K*^T w) per query panel.

    The generator drops its K(centres, panel) before it builds the next
    one, so a caller that drops its own holds one panel at a time."""
    for sl in _panel_slices(Xstar.shape[0], centres.shape[0]):
        # K(panel, C)^T is K(C, panel), Fortran-ordered, so BLAS reads it in place
        Ks = kernels.gram(kernel, Xstar[sl], centres).T
        yield sl, Ks, mean_fn(Xstar[sl]) + Ks.T @ weights
        del Ks


def predict_mean(kernel, mean_fn, centres, weights, Xstar) -> np.ndarray:
    """The posterior mean m(X*) + K(X*, centres) w of either GP kind (the
    exact one's training inputs and alpha, the SVGP's Z and Lz^-T mw),
    with no triangular work: `_predict`'s mean bitwise, except on
    `_grid_mean`'s inputs (rounding drift)."""
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    grid = _grid_mean(kernel, mean_fn, centres, weights, Xstar)
    if grid is not None:
        return grid
    means = []
    for _, Ks, mean in _panels(kernel, mean_fn, centres, weights, Xstar):
        del Ks
        means.append(mean)
    return np.concatenate(means) if means else np.empty(0)


def _predict(kernel, mean_fn, centres, weights, Linv, Xstar, Lw=None):
    """Posterior mean and latent variance (observation noise excluded) of
    either GP kind.

    With Linv the inverse of the lower triangular factor L (the exact
    model's Cholesky factor, the SVGP's Lz), the variance is
    k** - |L^-1 K*|^2 per column, Linv multiplied into each panel's K* in
    place by dtrmm.  With the SVGP's whitened factor `Lw` it adds
    |(L^-1 K*)^T Lw|^2, that product written over L^-1 K* once its norms
    are taken.  Variances are clamped at zero after roundoff.  Queries go
    a panel at a time (`_panel_slices`), so the call holds Linv, one
    panel of K* and q-vectors.
    """
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    q = Xstar.shape[0]
    mean = np.empty(q)
    var = np.empty(q)
    for sl, Ks, mean_sl in _panels(kernel, mean_fn, centres, weights, Xstar):
        mean[sl] = mean_sl
        # (L^-1 K*)^T = K*^T L^-T, written over K*, which is not read again
        Vt = tri_matmul(Ks.T, Linv, trans=True, overwrite_m=True)
        if Lw is None:
            Vt *= Vt
            var[sl] = kernels.gram_diag(kernel, Xstar[sl]) - np.sum(Vt, axis=1)
        else:
            var[sl] = kernels.gram_diag(kernel, Xstar[sl]) - _sq_row_norms(Vt)
            # (L^-1 K*)^T Lw, written over Vt: the panel holds one array
            Vt = tri_matmul(Vt, Lw, overwrite_m=True)
            Vt *= Vt
            var[sl] += np.sum(Vt, axis=1)
        del Ks, Vt
    return mean, np.maximum(var, 0.0)


def _sq_row_norms(V: np.ndarray) -> np.ndarray:
    """|V_i|^2 per row of a C-ordered V, bitwise np.sum(V * V, axis=1),
    with a row panel squared at a time."""
    out = np.empty(V.shape[0])
    for i, k in row_panels(V.shape[0]):
        W = V[i:k]
        out[i:k] = np.sum(W * W, axis=1)
    return out


def _grid_variance(basis: _GridBasis, kernel, Xstar) -> np.ndarray:
    """Latent variance at any query points of a model on `_grid_basis`'s
    inputs: s2 - s2^2 sum_ij Py[k, i]^2 Px[k, j]^2 / lam_ij, with the
    unit-scale cross-Grams against the training axes rotated into the
    eigenbasis, Px = k1(x*, xs) Qx and Py = k1(y*, ys) Qy, plus s2^2
    |P (Py[k] (x) Px[k])|^2, the C S^-1 C^T part for M holes, from M ny
    products per query (none for M = 0).  A panel of queries holds at
    most three arrays of up to max(nx, ny) columns and one of M ny."""
    s2 = kernel.outputscale
    unit = replace(kernel, log_outputscale=0.0)
    inv_lam = 1.0 / basis.lam
    ny, nx = basis.lam.shape
    M = basis.holes.P.shape[0]
    var = np.empty(Xstar.shape[0])
    for sl in _panel_slices(Xstar.shape[0], 3 * max(nx, ny) + M * ny):
        Px, Py = (
            kernels.gram(unit, Xstar[sl, d : d + 1], v[:, None]) @ Q
            for d, (v, Q) in enumerate(((basis.xs, basis.Qx), (basis.ys, basis.Qy)))
        )
        # P_k (Py[k] (x) Px[k]) = Py[k] . (P_k Px[k]^T), P_k as ny x nx
        H = (Px @ basis.holes.P.reshape(M * ny, nx).T).reshape(Px.shape[0], M, ny)
        U = np.matmul(H, Py[:, :, None])[:, :, 0]
        del H
        Px *= Px
        Py *= Py
        W = Py @ inv_lam
        W *= Px
        var[sl] = s2 - s2 * s2 * np.sum(W, axis=1)
        var[sl] += s2 * s2 * np.sum(U * U, axis=1)
        del Px, Py, W, U
    return np.maximum(var, 0.0)


def predict_exact(model: ExactGpModel, Xstar) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and latent variance of an exact model: `_predict`
    through the inverse of its Cholesky factor, inverted on a copy, or,
    when it has none, `predict_mean`'s mean and `_grid_variance` from the
    eigenbasis of its training grid and the correction for that grid's
    M >= 0 missing cells."""
    if model.chol is not None:
        Linv = tri_inverse(model.chol)
        return _predict(model.kernel, model.mean_fn, model.X, model.alpha, Linv, Xstar)
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    basis = _grid_basis(model.X, model.kernel, model.noise_var)
    return model.predict_mean(Xstar), _grid_variance(basis, model.kernel, Xstar)


def fit_exact(
    data: Dataset,
    method: MethodConfig,
    seed: int,
    mean_fn=None,
    noise_vector=None,
) -> ExactGpModel:
    """Maximize the LML with Adam for the configured epoch budget.

    The noise follows `methods.noise_plan`; a `noise_vector` holds
    normalized per-point variances.
    """
    X, Y = data.X, data.Y
    n = data.n
    noise_field, constant, learn_noise = noise_plan(method, n, noise_vector)
    noise_vec = np.full(n, float(constant)) if noise_field is None else noise_field
    # a learnable constant is trained in place, so train the model's own copy
    mean_fn = default_mean(method) if mean_fn is None else copy.copy(mean_fn)
    kernel = init_kernel(method, stream_rng(seed, INIT))

    blocks = dict(zip(kernels.param_names(kernel), kernels.get_params(kernel)))
    if getattr(mean_fn, "learnable", False):
        blocks[MEAN_CONSTANT] = mean_fn.constant
    if learn_noise:
        blocks[LOG_NOISE_VARIANCE] = np.log(noise_vec[0])

    def unpack(new: dict):
        nonlocal kernel, noise_vec
        kernel = kernels.with_params(kernel, [new[name] for name in kernels.param_names(kernel)])
        if MEAN_CONSTANT in new:
            mean_fn.constant = new[MEAN_CONSTANT]
        if learn_noise:
            noise_vec = np.full(n, float(np.exp(new[LOG_NOISE_VARIANCE])))
            if not np.isfinite(noise_vec[0]):
                raise TrainingDivergedError("learned noise variance overflowed")

    history = minimize(
        lambda _batch: lml_gradients(X, Y, mean_fn, kernel, noise_vec, noise_learned=learn_noise),
        unpack, blocks, method.learning_rate, method.epochs, lambda: (None,),
    )
    model = build_model(
        X,
        Y,
        mean_fn,
        kernel,
        noise_vec,
        homoscedastic=not method.heteroscedastic,
    )
    model.loss_history = history
    return model
