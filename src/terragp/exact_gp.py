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
points of a complete grid (hayner, and stage 1 on a raster) has
K = s2 Ky (x) Kx for the 1-D Grams of the two axes (Saatci 2012, ch. 5;
Wilson et al. 2014).  Its
training epochs, its weights alpha and its predictive variance all come
from the eigendecompositions of those Grams (`_grid_basis`), and it
holds no Cholesky factor: no n x n array is formed in fit, build, load
or predict.  Likewise `predict_mean` with an RBF kernel on a complete
query grid takes the mean from two 1-D cross-Grams.

Off the grid, `predict_exact` forms the latent variance k** - |L^-1 K*|^2
from an explicit L^-1 (`linalg.tri_inverse`, once per call), multiplied
into each query panel's K* in place by BLAS dtrmm: the same n^2 q flops
as a triangular solve, at about twice its speed.  An inverse's error
grows with cond(L) (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 8 and 14), and here the noise, its floor and the jitter
bound it: cond(L) was 37 to 162 on the Table-1 scenes' exact models.  On
the grid the variance takes O(q n) flops from the query cross-Grams
rotated into the eigenbasis (`_grid_variance`).  The SVGP predicts
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

from . import kernels
from .datasets import Dataset, grid_axes
from .errors import TrainingDivergedError
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
    jitter: float
    loss_history: list = field(default_factory=list, repr=False, compare=False)

    def predict(self, Xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return predict_exact(self, Xn)

    def predict_mean(self, Xn: np.ndarray) -> np.ndarray:
        return predict_mean(self.kernel, self.mean_fn, self.X, self.alpha, Xn)

    def obs_noise(self, Xn: np.ndarray) -> float:
        return float(self.noise_var[0]) if self.homoscedastic else 0.0


def _factorize(K, X, Y, mean_fn, noise_vec):
    """(L, a, lml, jitter): L L^T = K + diag(noise) for a C-ordered
    symmetric K (`kernels.sym_gram`), the noise added to K and the factor
    written over it, and a = (L L^T)^-1 (Y - m(X))."""
    K.flat[:: K.shape[0] + 1] += noise_vec
    # the Fortran-ordered K.T is factored in place; `chol_with_jitter` is
    # looked up at call time, so a tracer that rebinds it sees every call
    L, jitter = chol_with_jitter(K.T)
    resid = np.asarray(Y, dtype=float) - mean_fn(X)
    a = chol_solve(L, resid)
    n = a.size
    lml = float(-0.5 * resid @ a - np.log(np.diag(L)).sum() - 0.5 * n * np.log(2.0 * np.pi))
    return L, a, lml, jitter


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

    With an RBF kernel, one constant noise > 0 and X a complete grid
    (`datasets.grid_axes`), `_grid_lml_gradients` gives the same values
    without an n x n matrix, unless the noise is too small for it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    noise_vec = check_noise(noise_var, X.shape[0])
    grid = _grid_lml_gradients(X, Y, mean_fn, kernel, noise_vec, noise_learned)
    if grid is not None:
        return grid
    L, a, lml, _ = _factorize(kernels.sym_gram(kernel, X), X, Y, mean_fn, noise_vec)
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


# The Kronecker eigenbasis of K + s2n I on a complete grid (xs, ys): the
# unit-scale 1-D Grams of the axes with their d/dlog(ell), their
# eigendecompositions, and the ny x nx eigenvalues lam of K + s2n I
_GridBasis = namedtuple("_GridBasis", "xs ys Ky dKy Kx dKx ly Qy lx Qx lam")


def _grid_solve(basis: _GridBasis, resid):
    """(Rt, At, A): the ny x nx residual in the eigenbasis, Rt = Qy^T R Qx,
    At = Rt / lam, and A = Qy At Qx^T = (K + s2n I)^-1 R."""
    Rt = basis.Qy.T @ resid.reshape(basis.lam.shape) @ basis.Qx
    At = Rt / basis.lam
    return Rt, At, basis.Qy @ At @ basis.Qx.T


def _grid_basis(X, kernel, noise_vec) -> _GridBasis | None:
    """The eigenbasis of K + s2n I for an RBF kernel, one constant noise
    s2n > 0 and a complete grid X, else None.  There K = s2 Ky (x) Kx for
    the unit-scale 1-D Grams of the axes, so K + s2n I = Q (s2 ly (x) lx +
    s2n) Q^T with Q = Qy (x) Qx from their eigendecompositions, and an
    n-vector reshaped to ny x nx turns into that basis as Qy^T R Qx.
    Below a smallest eigenvalue of n eps times the largest it returns None
    and the dense path, which owns the jitter policy, takes over; on RBF
    grids of 30 to 2304 points that path's Cholesky first needed jitter
    300 times lower.
    """
    axes = grid_axes(X) if kernel.family == kernels.RBF else None  # None for no points
    if axes is None or not noise_vec[0] > 0.0 or np.any(noise_vec != noise_vec[0]):
        return None
    sigma2 = noise_vec[0]
    unit = replace(kernel, log_outputscale=0.0)
    (Ky, dy), (Kx, dx) = (
        kernels.gram_and_gradients(unit, kernels.sq_dists(v[:, None], v[:, None]))
        for v in axes[::-1]  # ys index the rows of an ny x nx grid, xs its columns
    )
    (ly, Qy), (lx, Qx) = np.linalg.eigh(Ky), np.linalg.eigh(Kx)
    lam = kernel.outputscale * np.outer(ly, lx) + sigma2
    if lam.min() <= lam.size * np.finfo(float).eps * lam.max():
        return None
    dKy, dKx = dy[kernels.LOG_LENGTHSCALE], dx[kernels.LOG_LENGTHSCALE]
    return _GridBasis(*axes, Ky, dKy, Kx, dKx, ly, Qy, lx, Qx, lam)


def _grid_lml_gradients(X, Y, mean_fn, kernel, noise_vec, noise_learned):
    """`lml_gradients` in the eigenbasis of `_grid_basis`, else None."""
    basis = _grid_basis(X, kernel, noise_vec)
    if basis is None:
        return None
    _, _, Ky, dKy, Kx, dKx, ly, Qy, lx, Qx, lam = basis
    s2, sigma2, n = kernel.outputscale, noise_vec[0], lam.size
    S = s2 * np.outer(ly, lx)  # eigenvalues of K, ny x nx
    Rt, At, A = _grid_solve(basis, np.asarray(Y, dtype=float) - mean_fn(X))
    lml = float(-0.5 * np.vdot(At, Rt) - 0.5 * np.log(lam).sum() - 0.5 * n * np.log(2.0 * np.pi))
    # dK/dlog(ell) = s2 (dKy (x) Kx + Ky (x) dKx); tr((K + s2n I)^-1 dK) from
    # the diagonals diag(Q^T dK1 Q) of the 1-D factors
    dly, dlx = (np.einsum("ij,ij->j", Q, dK @ Q) for Q, dK in ((Qy, dKy), (Qx, dKx)))
    quad = np.vdot(A, dKy @ A @ Kx) + np.vdot(A, Ky @ A @ dKx)
    trace = ((np.outer(dly, lx) + np.outer(ly, dlx)) / lam).sum()
    grads = {
        kernels.LOG_LENGTHSCALE: 0.5 * s2 * float(quad - trace),
        kernels.LOG_OUTPUTSCALE: 0.5 * float(np.vdot(At * At, S) - (S / lam).sum()),
    }
    if noise_learned:
        grads[LOG_NOISE_VARIANCE] = 0.5 * float(sigma2 * (np.vdot(A, A) - (1.0 / lam).sum()))
    if getattr(mean_fn, "learnable", False):
        grads[MEAN_CONSTANT] = float(np.sum(A))
    return lml, grads


def _grid_mean(kernel, mean_fn, centres, weights, Xstar):
    """`predict_mean` for an RBF kernel and a complete query grid (xs, ys)
    with nx + ny <= `_GRID_MEAN_MAX_AXES`, else None.  With the unit-scale
    Ex = k1(xs, C[:, 0]) and Ey = k1(ys, C[:, 1]) for the centres C, the
    ny x nx mean is m + Ey (s2 w (.) Ex)^T: (nx + ny) c kernel entries and
    one gemm instead of q c entries."""
    axes = grid_axes(Xstar) if kernel.family == kernels.RBF else None
    if axes is None or axes[0].size + axes[1].size > _GRID_MEAN_MAX_AXES:
        return None
    unit = replace(kernel, log_outputscale=0.0)
    Ex, Ey = (kernels.gram(unit, v[:, None], centres[:, d : d + 1]) for d, v in enumerate(axes))
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
        L, a, _, jitter = _factorize(kernels.sym_gram(kernel, X), X, Y, mean_fn, noise_vec)
    else:
        L, a, jitter = None, _grid_solve(basis, Y - mean_fn(X))[2].ravel(), 0.0
    return ExactGpModel(
        kernel=kernel,
        mean_fn=mean_fn,
        noise_var=noise_vec,
        homoscedastic=bool(homoscedastic),
        X=X,
        Y=Y,
        chol=L,
        alpha=a,
        jitter=jitter,
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
    eigenbasis, Px = k1(x*, xs) Qx and Py = k1(y*, ys) Qy.  A panel of
    queries holds at most three arrays of up to max(nx, ny) columns."""
    s2 = kernel.outputscale
    unit = replace(kernel, log_outputscale=0.0)
    inv_lam = 1.0 / basis.lam
    var = np.empty(Xstar.shape[0])
    for sl in _panel_slices(Xstar.shape[0], 3 * max(basis.xs.size, basis.ys.size)):
        Px, Py = (
            kernels.gram(unit, Xstar[sl, d : d + 1], v[:, None]) @ Q
            for d, (v, Q) in enumerate(((basis.xs, basis.Qx), (basis.ys, basis.Qy)))
        )
        Px *= Px
        Py *= Py
        W = Py @ inv_lam
        W *= Px
        var[sl] = s2 - s2 * s2 * np.sum(W, axis=1)
        del Px, Py, W
    return np.maximum(var, 0.0)


def predict_exact(model: ExactGpModel, Xstar) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and latent variance of an exact model: `_predict`
    through the inverse of its Cholesky factor, inverted on a copy, or,
    when it has none, `predict_mean`'s mean and `_grid_variance` from the
    eigenbasis of its training grid."""
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
