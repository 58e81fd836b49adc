"""Sparse stochastic variational GP regression.

The state holds the variational posterior over inducing values u
whitened (Hensman et al., UAI 2013): with Lz = chol(Kzz),

    q(u) = N(m(Z) + Lz mvec, Lz L L^T Lz^T),

so a zero `mvec` with an identity `L` is the prior.  These are the
coordinates the trainer steps, and every formula is written once in
them: the q(f) marginals, the KL, the initial q(u) and the ELBO.  The
likelihood is Gaussian with either a learned constant variance or fixed
per-point variances, which keeps the expected log-likelihood in closed
form; no sampling anywhere.

Kzz is the prior covariance of u with a floor: `_kzz_factor`, the one
place it is factored, adds KZZ_FLOOR s2 to its diagonal, with
KZZ_FLOOR = 1e-6 as GPflow's default jitter (Matthews et al., JMLR 18,
2017).  That floored Kzz is the prior in the ELBO, the initial q(u) and
prediction alike.  It treats u as f(Z) plus a small independent noise,
so the prior of f itself is unchanged and the ELBO still bounds the
exact log marginal likelihood.  Its eigenvalues lie in
[KZZ_FLOOR s2, (m + KZZ_FLOOR) s2], so cond(Lz) <= sqrt(1 + m / KZZ_FLOOR),
about 3.2e4 at m = 1024, where the unfloored Kzz of a smooth kernel
reached 1e16.  With cond(Lz) bounded, prediction runs through Lz^-1 in
the exact model's loop (`exact_gp._predict`, `exact_gp.predict_mean`),
and so does the ELBO step.

All ELBO gradients are analytic and come from one reverse-mode pass,
`elbo_minibatch`, the trainer's own step.  It evaluates Kxz once, with
every dKxz/dtheta; Kzz is built on the one triangle its Cholesky reads
and factored in place (`_kzz_factor`).  The kernel-matrix adjoints
reach the hyperparameters through those derivatives; the adjoint of
Kzz comes from a blocked reverse of its Cholesky factor.  That adjoint
is one triangle: the Cholesky reads only one triangle of Kzz, so
dF/dKzz_ij for i >= j is all there is, and each dKzz/dtheta, symmetric,
is recomputed a row panel at a time on one triangle and contracted with
it (`kernels.sym_gradient_sums`), so no whole dKzz/dtheta is stored.
The products whose upper triangles nothing reads (the Lz adjoint fed to
that reverse, and the Lw adjoint, whose strict lower triangle and
diagonal are the gradient blocks) are formed on and below the diagonal
only.  The step's two products with Lz^-1, B = Kxz Lz^-T and
Kxz_bar = B_bar Lz^-1, are BLAS dtrmm products with one explicit
inverse (`linalg.tri_inverse`), not dtrsm solves: on a 1-thread OpenBLAS
a solve with b = 256 right-hand sides ran at 16 Gflop/s at m = 256, and
the product of the same shape took 0.35 of its time.  A step holds at
most two m x m arrays at a time.  The initial q(u) forms its B the same
way, written over Kxz, so no SVGP path makes a dtrsm solve.

The inducing locations Z are not trained; they stay at their seeded
draw from the training inputs.  On terrain domains the data barely
determine Z, and Adam would turn rounding-level gradients on nearly
coincident points into full-size steps.  Fixed, well-spread Z come
close to optimized ones (Burt, Rasmussen & van der Wilk, JMLR 21, 2020).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import dswap, dsyrk

from . import exact_gp, kernels
from .datasets import Dataset
from .errors import InvalidConfigError, InvalidInputError
from .linalg import (
    chol_with_jitter, mirror_strict_lower, strict_lower_mask, tri_inverse, tri_matmul, tri_solve,
)
from .means import default_mean
from .methods import (
    LOG_NOISE_VARIANCE, MethodConfig, check_noise, init_kernel, noise_plan,
)
from .optim import epoch_batches, minimize
from .seeding import BATCH_SHUFFLE, INDUCING_INIT, INIT, stream_rng


@dataclass
class SvgpState:
    Z: np.ndarray  # (m, 2) inducing locations
    mvec: np.ndarray  # (m,) whitened mean: q(u) has mean m(Z) + Lz mvec
    L: np.ndarray  # (m, m) whitened factor, lower triangular with positive diagonal
    kernel: kernels.KernelConfig
    mean_fn: object
    log_noise_var: float | None  # None when the noise is an external field
    loss_history: list = field(default_factory=list, repr=False, compare=False)

    @property
    def num_inducing(self) -> int:
        return self.Z.shape[0]

    def predict(self, Xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return predictive_qf(self, Xn)

    def predict_mean(self, Xn: np.ndarray) -> np.ndarray:
        return exact_gp.predict_mean(self.kernel, self.mean_fn, self.Z, _mean_weights(self)[1], Xn)

    def obs_noise(self, Xn: np.ndarray) -> float:
        return 0.0 if self.log_noise_var is None else np.exp(self.log_noise_var)


def init_inducing(X: np.ndarray, m: int, seed: int) -> np.ndarray:
    """m distinct training inputs drawn without replacement; the inducing
    locations of a fit, which training leaves where they are."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if m < 1 or m > n:
        raise InvalidConfigError(f"inducing count {m} must satisfy 1 <= m <= n ({n})")
    rng = stream_rng(seed, INDUCING_INIT)
    idx = rng.choice(n, size=m, replace=False)
    return X[idx].copy()


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------


def expected_loglik(qf_mean, qf_var, y, noise_var):
    """E_{f ~ N(mu, s2)}[log N(y | f, v)] in closed form:
    -0.5 log(2 pi v) - ((y - mu)^2 + s2) / (2 v)."""
    noise_var = np.asarray(noise_var, dtype=float)
    if np.any(noise_var <= 0):
        raise InvalidInputError("noise variance must be positive")
    qf_mean = np.asarray(qf_mean, dtype=float)
    qf_var = np.asarray(qf_var, dtype=float)
    y = np.asarray(y, dtype=float)
    return -0.5 * np.log(2.0 * np.pi * noise_var) - (
        (y - qf_mean) ** 2 + qf_var
    ) / (2.0 * noise_var)


# the floor on Kzz's diagonal, as a fraction of the outputscale s2
KZZ_FLOOR = 1e-6


def _kzz_factor(kernel: kernels.KernelConfig, Z: np.ndarray) -> np.ndarray:
    """Lz = chol(Kzz + KZZ_FLOOR s2 I), the one factor of the inducing
    prior covariance.

    Kzz is built on one triangle (`kernels.sym_gram`), floored and
    factored in place, so the factor is the one m x m array it holds.
    `chol_with_jitter` is looked up at call time, so a tracer that
    rebinds it sees every call."""
    Kzz = kernels.sym_gram(kernel, Z)
    Kzz.flat[:: Kzz.shape[0] + 1] += KZZ_FLOOR * kernel.outputscale
    Lz, _ = chol_with_jitter(Kzz.T)
    return Lz


# Why whitened: over the mean and a factor of S = Cov q(u) themselves the
# loss surface is catastrophically ill-conditioned for smooth kernels:
# A = Kxz Kzz^-1 has huge rows whenever Kzz is close to singular, so a
# fixed-size Adam step on chol(S) can inflate the marginal variances
# A S A^T by orders of magnitude.  In the whitened coordinates the data
# fit sees B = Kxz Lz^-T (rows bounded by sqrt(kxx)) and the KL has no
# Kzz dependence.  Converting the state to S and back would multiply
# rounding error by cond(Lz), so nothing does.


def kl_term(state: SvgpState) -> float:
    """KL[q(u) || p(u)] = KL[N(mw, Lw Lw^T) || N(0, I)] for the whitened
    mean mw = `mvec` and factor Lw = `L`."""
    mw, Lw = state.mvec, state.L
    logdet_lw = float(np.log(np.diag(Lw)).sum())
    return 0.5 * (float(np.vdot(Lw, Lw)) + float(mw @ mw) - mw.size - 2.0 * logdet_lw)


def _mean_weights(state: SvgpState) -> tuple[np.ndarray, np.ndarray]:
    """(Lz, c) with c = Lz^-T mw: the q(f) mean is m(x) + K(x, Z) c."""
    Lz = _kzz_factor(state.kernel, state.Z)
    return Lz, tri_solve(Lz, state.mvec)


def predictive_qf(state: SvgpState, Xstar) -> tuple[np.ndarray, np.ndarray]:
    """Marginal q(f*) at query points: the sparse-GP mean m(x*) + K*z c and
    variance k** - |B_i|^2 + |(B Lw)_i|^2 with B = K*z Lz^-T, clamped at
    zero, from the exact model's loop with Lz^-1.  Lz is this call's own,
    so it is inverted in place: the call holds one m x m array."""
    Lz, c = _mean_weights(state)
    Lz_inv = tri_inverse(Lz, overwrite_l=True)
    return exact_gp._predict(state.kernel, state.mean_fn, state.Z, c, Lz_inv, Xstar, Lw=state.L)


# ---------------------------------------------------------------------------
# ELBO and analytic gradients
# ---------------------------------------------------------------------------


def _log_diag(chol_bar: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Move the diagonal of a factor's adjoint into log-diagonal space and
    add the +1 per entry of the ELBO's +log|chol| term, in place.

    The log-determinant is differentiated directly on the diagonal; going
    through an inverse instead explodes when the factor is badly
    conditioned."""
    diag = np.diag_indices_from(chol_bar)
    chol_bar[diag] = chol_bar[diag] * np.diag(chol) + 1.0
    return chol_bar


# Columns per block of the Cholesky reverse.  Its diagonal-block work
# grows as b^3 per block and its trailing products slow down as b
# shrinks.  On a 1-thread OpenBLAS (CPU ms, medians of 15) blocks of 32,
# 64, 96, 128 and 256 took 43.1, 33.8, 31.7, 34.2 and 35.4 at m = 1024,
# where 64 to 128 are within the spread, and 1.74, 1.56, 1.73, 2.24 and
# 4.23 at m = 256.
_CHOL_BLOCK = 64


def _chol_backward(Lz: np.ndarray, Lz_bar: np.ndarray) -> np.ndarray:
    """One-triangle adjoint of Kzz with respect to Lz = chol(Kzz), written
    over `Lz_bar`.

    The Cholesky reads only the lower triangle of Kzz, so the adjoint is
    the lower-triangular A with A_ij = dF/dKzz_ij for i >= j and a zero
    strict upper triangle.  For a symmetric D (every dKzz/dtheta),
    vdot(A, D) is the derivative of F along D: the same sum as against
    the symmetric adjoint (A + A^T) / 2, which is never formed.

    The blocked level-3 reverse of Murray 2016, "Differentiation of the
    Cholesky decomposition" (arXiv:1602.07527): it undoes a left-looking
    blocked factorization one diagonal block at a time, last block first,
    carrying the adjoint of Kzz's lower triangle in place of L_bar.  For
    the block rows j:k, with R = L[j:k, :j], D = L[j:k, j:k],
    B = L[k:, :j] and C = L[k:, j:k] (C = (A_C - B R^T) D^-T and
    D = chol(A_D - R R^T) in the forward pass):

        C_bar <- C_bar D^-1,  B_bar -= C_bar R,  D_bar -= tril(C_bar^T C),
        D_bar <- Phi(T + T^T) with T = D^-T Phi(D^T D_bar) D^-1,
        R_bar -= (D_bar + D_bar^T) R + C_bar^T B,

    Phi taking the lower triangle with its diagonal halved.  The last
    update is one product, [T + T^T; C_bar]^T L[j:, :j].  Each block's
    three solves with D are products with its inverse (`dtrtri`, then
    `dtrmm`).  On a 1-thread OpenBLAS that took 39 ms at m = 1024 and
    1.7 ms at m = 256, against 45 and 2.3 ms through `dtrsm`, whose
    solves ran at 5 to 10 Gflop/s.
    """
    m = Lz.shape[0]
    A = Lz_bar
    for k in range(m, 0, -_CHOL_BLOCK):
        j = max(0, k - _CHOL_BLOCK)
        b = k - j
        A[j:k, k:] = 0.0
        Dinv = tri_inverse(Lz[j:k, j:k])
        # the block column's adjoint [T + T^T; C_bar], C-ordered
        W = np.empty((m - j, b))
        C_bar = W[b:]
        C_bar[...] = A[k:, j:k]
        tri_matmul(C_bar, Dinv, overwrite_m=True)  # C_bar D^-1, over C-ordered C_bar
        A[k:, j:k] = C_bar
        A[k:, :j] -= C_bar @ Lz[j:k, :j]
        D_bar = np.tril(A[j:k, j:k])
        D_bar -= np.tril(C_bar.T @ Lz[k:, j:k])
        P = np.tril(Lz[j:k, j:k].T @ D_bar)
        P[np.diag_indices(b)] *= 0.5
        T = tri_matmul(tri_matmul(P, Dinv).T, Dinv).T  # D^-T P D^-1
        W[:b] = T
        W[:b] += T.T
        A[j:k, :j] -= W.T @ Lz[j:, :j]
        D_bar = np.tril(W[:b])
        D_bar[np.diag_indices(b)] *= 0.5
        A[j:k, j:k] = D_bar
    return A


# Row panel of `_lower_product`: wide enough to keep its products at BLAS
# speed, narrow enough to skip most of the upper triangle.
_PANEL = 128


def _lower_product(X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """X^T Y for X, Y of one shape (b, m), formed only on and below the
    diagonal in row panels of _PANEL: about half the flops of the full
    product.  The rest of the upper triangle is zero.  It is written
    over `out`, a C-ordered m x m array, when one is given."""
    m = X.shape[1]
    if out is None:
        out = np.zeros((m, m))
    else:
        out.fill(0.0)
    for i in range(0, m, _PANEL):
        k = min(m, i + _PANEL)
        np.matmul(X[:, i:k].T, Y[:, :k], out=out[i:k, :k])
    return out


def _elbo_whitened(
    state: SvgpState,
    Xb: np.ndarray,
    yb: np.ndarray,
    n_total: int,
    noise_var,
) -> tuple[float, dict]:
    """Minibatch ELBO (n/b) sum_i E[log p(y_i | f_i)] - KL and its
    gradient blocks, named and laid out as the state's own blocks.

    `noise_var` is a scalar (constant noise) or an array aligned with
    the batch (fixed spatial noise).
    """
    Z, mw, Lw, kernel = state.Z, state.mvec, state.L, state.kernel
    Xb = np.atleast_2d(np.asarray(Xb, dtype=float))
    yb = np.asarray(yb, dtype=float)
    b = Xb.shape[0]
    if b == 0:
        raise InvalidInputError("batch must be nonempty")
    v = np.asarray(noise_var, dtype=float)
    if v.ndim == 0:
        v = np.full(b, float(v))
    w = n_total / b

    # Kxz and every dKxz/dtheta from one kernel pass; each dKzz/dtheta is
    # recomputed a row panel at a time against Kzz's adjoint below
    Kxz, dKxz = kernels.gram_and_gradients(kernel, kernels.sq_dists(Xb, Z))
    Lz = _kzz_factor(kernel, Z)
    Lz_inv = tri_inverse(Lz)
    # B = Kxz Lz^-T, beside Kxz, which is also dKxz/dlog(s2)
    B = tri_matmul(Kxz, Lz_inv, trans=True)
    kxx = kernels.gram_diag(kernel, Xb)
    # q(f) at the batch: mean m + B mw, variance kxx - |B_i|^2 + |(B Lw)_i|^2
    BL = tri_matmul(B, Lw)
    s2 = kxx - np.einsum("ij,ij->i", B, B) + np.einsum("ij,ij->i", BL, BL)
    mu = state.mean_fn(Xb) + B @ mw
    resid = yb - mu
    elbo = w * float(np.sum(expected_loglik(mu, s2, yb, v))) - kl_term(state)

    # reverse pass down to the kernel matrices
    ebar = w * resid / v  # d elbo / d mu
    ubar = -w / (2.0 * v)  # d elbo / d s2
    # B_bar = ebar mw^T + 2 ubar (B Lw Lw^T - B), in one b x m buffer
    B_bar = tri_matmul(BL, Lw, trans=True)
    B_bar -= B
    B_bar *= (2.0 * ubar)[:, None]
    B_bar += np.outer(ebar, mw)
    # B = Kxz Lz^-T:  Kxz_bar = B_bar Lz^-1 (in place),  Lz_bar = -Kxz_bar^T B
    Kxz_bar = tri_matmul(B_bar, Lz_inv, overwrite_m=True)
    # Kzz_bar is formed over Lz^-1, which is not read again, so the step
    # holds at most two m x m arrays at a time: Lz with Lz^-1, which
    # becomes Kzz_bar, then Lw_bar
    Kzz_bar = _chol_backward(Lz, _lower_product(-Kxz_bar, B, out=Lz_inv.T))
    del Lz, Lz_inv
    # Kzz_bar (one lower triangle, the upper one of Kzz_bar^T) and Kxz_bar
    # into the kernel hyperparameters
    kzz_sums, _ = kernels.sym_gradient_sums(kernel, Z, Kzz_bar.T)
    kern_grads: dict[str, float] = {}
    for name, g in kzz_sums.items():
        g += float(np.vdot(Kxz_bar, dKxz[name]))
        if name == kernels.LOG_OUTPUTSCALE:
            # the floor's KZZ_FLOOR s2 on Kzz's diagonal is part of dKzz/dlog(s2)
            g += KZZ_FLOOR * kernel.outputscale * float(np.trace(Kzz_bar))
            g += float(np.sum(ubar * kxx))
        kern_grads[name] = g
    del Kzz_bar

    mw_bar = B.T @ ebar - mw
    # 2 B^T diag(ubar) B Lw - Lw; only its strict lower triangle and its
    # diagonal are read
    Lw_bar = _lower_product(B, (2.0 * ubar)[:, None] * BL)
    Lw_bar -= Lw
    _log_diag(Lw_bar, Lw)

    noise_grad = None
    if state.log_noise_var is not None:
        noise_grad = float(w * np.sum(-0.5 + (resid**2 + s2) / (2.0 * v)))
    return elbo, _blocks(mw_bar, Lw_bar, np.diag(Lw_bar), kern_grads, noise_grad)


# the public name of the trainer's step: one function object under two names
elbo_minibatch = _elbo_whitened


def _optimal_whitened_q(
    Z: np.ndarray,
    kernel: kernels.KernelConfig,
    mean_fn,
    X: np.ndarray,
    Y: np.ndarray,
    noise_var: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form optimum of q(u) for fixed kernel and noise, whitened.

    For a Gaussian likelihood the ELBO is maximized over q(u) at
    S_w = (I + B^T V^-1 B)^-1 and m_w = S_w B^T V^-1 (y - m(X)) with
    B = Kxz Lz^-T.  Starting the optimizer here matters: when the noise
    field is small, the optimal whitened mean is far from zero along the
    prior's small eigendirections and bounded per-coordinate steps take
    thousands of iterations to reach it.
    """
    # B = Kxz Lz^-T by dtrmm over the C-ordered Kxz, with Lz inverted in
    # place; neither Kxz nor Lz outlives the product
    Lz_inv = tri_inverse(_kzz_factor(kernel, Z), overwrite_l=True)
    B = tri_matmul(kernels.gram(kernel, X, Z), Lz_inv, trans=True, overwrite_m=True)
    del Lz_inv
    root_v = np.sqrt(check_noise(noise_var, X.shape[0], variational=True))
    B /= root_v[:, None]  # V^-1/2 B
    # the upper triangle of M = I + B^T V^-1 B by one rank-n update (dsyrk)
    M = dsyrk(1.0, B.T, beta=1.0, c=np.eye(Z.shape[0], order="F"), overwrite_c=1)
    # With J the index reversal and U = chol(J M J), M = R R^T for the
    # upper-triangular R = J U J, so S_w = M^-1 = Lw Lw^T with the lower
    # factor Lw = R^-T = J U^-T J: one Cholesky and one triangular inverse.
    # The lower triangle of J M J that the Cholesky reads is M's upper; M's
    # lower is its mirror, from which a failed attempt is restored.  All
    # of it happens in M's buffer: reversed, a Fortran-ordered J M J; its
    # factor U and U^-1 in place; U^-1 reversed, read C-ordered, is Lw.
    mirror_strict_lower(M.T)
    _reverse_entries(M)
    U, _ = chol_with_jitter(M)
    U_inv = tri_inverse(U, overwrite_l=True)
    _reverse_entries(U_inv)
    Lw = U_inv.T
    resid = np.asarray(Y, dtype=float) - mean_fn(X)
    mw = Lw @ (Lw.T @ (B.T @ (resid / root_v)))
    return mw, Lw


def _reverse_entries(A: np.ndarray) -> None:
    """Reverse the order of the entries of the Fortran-ordered A in
    place, which turns a square A into J A J for the index reversal J,
    with no scratch: one BLAS dswap of the first half of the entries
    with the last half read backwards."""
    flat = A.ravel(order="F")
    if not np.shares_memory(flat, A):
        raise ValueError("expected a Fortran-ordered array")
    half = flat.size // 2
    dswap(flat[:half], flat[flat.size - half :], incy=-1)


# ---------------------------------------------------------------------------
# Parameter blocks (shared by the trainer and the gradient checker)
# ---------------------------------------------------------------------------


def _blocks(mvec, chol, chol_logdiag, kernel_params: dict, log_noise_var) -> dict:
    """The one parameter layout, of the state and of its gradients alike:
    variational mean, the strict lower triangle of the variational
    factor and its log diagonal, the kernel's log hyperparameters, and
    the log noise variance when the state has one.  The inducing
    locations are fixed, so they have no block."""
    blocks = {
        "variational_mean": mvec,
        "variational_chol": chol[strict_lower_mask(mvec.size)],
        "variational_chol_logdiag": chol_logdiag,
        **kernel_params,
    }
    if log_noise_var is not None:
        blocks[LOG_NOISE_VARIANCE] = log_noise_var
    return blocks


def _state_blocks(state: SvgpState) -> dict:
    kernel = dict(zip(kernels.param_names(state.kernel), kernels.get_params(state.kernel)))
    logdiag = np.log(np.diag(state.L))
    return _blocks(state.mvec, state.L, logdiag, kernel, state.log_noise_var)


def _from_blocks(state: SvgpState, blocks: dict) -> SvgpState:
    """`state` with its parameters read from `blocks`; without a noise
    block the state keeps its own noise."""
    m = state.num_inducing
    L = np.zeros((m, m))
    L[strict_lower_mask(m)] = blocks["variational_chol"]
    L[np.diag_indices(m)] = np.exp(blocks["variational_chol_logdiag"])
    names = kernels.param_names(state.kernel)
    return replace(
        state, mvec=blocks["variational_mean"], L=L,
        kernel=kernels.with_params(state.kernel, [blocks[name] for name in names]),
        log_noise_var=blocks.get(LOG_NOISE_VARIANCE, state.log_noise_var),
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def fit_svgp(
    data: Dataset,
    method: MethodConfig,
    seed: int,
    mean_fn=None,
    noise_vector=None,
) -> SvgpState:
    """Adam ascent on the minibatched ELBO over the variational mean and
    covariance factor, the kernel hyperparameters, and the constant noise
    when it is learned.  The inducing locations stay at `init_inducing`'s
    seeded draw.

    The noise follows `methods.noise_plan`; a `noise_vector` holds
    per-point variances aligned with `data`.
    """
    n = data.n
    noise_field, constant, learn_noise = noise_plan(method, n, noise_vector)
    mean_fn = default_mean(method) if mean_fn is None else mean_fn
    log_noise = None if noise_field is not None else float(np.log(constant))

    kernel = init_kernel(method, stream_rng(seed, INIT))
    Z0 = init_inducing(data.X, method.num_inducing, seed)
    v_init = noise_field if noise_field is not None else float(np.exp(log_noise))
    mw0, lw0 = _optimal_whitened_q(Z0, kernel, mean_fn, data.X, data.Y, v_init)
    state = SvgpState(
        Z=Z0,
        mvec=mw0,
        L=lw0,
        kernel=kernel,
        mean_fn=mean_fn,
        log_noise_var=log_noise,
    )

    # a pinned noise stays in the state but out of the trained blocks
    blocks = _state_blocks(state if learn_noise else replace(state, log_noise_var=None))

    def objective_grad(idx):
        batch_noise = np.exp(state.log_noise_var) if noise_field is None else noise_field[idx]
        return _elbo_whitened(state, data.X[idx], data.Y[idx], n, batch_noise)

    def unpack(new: dict):
        nonlocal state
        state = _from_blocks(state, new)

    rng_batches = stream_rng(seed, BATCH_SHUFFLE)
    history = minimize(
        objective_grad, unpack, blocks, method.learning_rate, method.epochs,
        lambda: epoch_batches(n, method.batch_size, rng_batches),
    )

    state.loss_history = history
    return state
