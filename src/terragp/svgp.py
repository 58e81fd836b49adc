"""Sparse stochastic variational GP regression.

The state holds the variational posterior over inducing values u = f(Z)
whitened (Hensman et al., UAI 2013): with Lz = chol(Kzz),

    q(u) = N(m(Z) + Lz mvec, Lz L L^T Lz^T),

so a zero `mvec` with an identity `L` is the prior.  These are the
coordinates the trainer steps, and every formula is written once in
them: the q(f) marginals, the KL, the initial q(u) and the ELBO.  The
likelihood is Gaussian with either a learned constant variance or fixed
per-point variances, which keeps the expected log-likelihood in closed
form; no sampling anywhere.

All ELBO gradients are analytic and come from one reverse-mode pass,
`elbo_minibatch`, the trainer's own step.  It evaluates Kzz and Kxz
once each, with every dK/dtheta, through which the kernel-matrix
adjoints reach the hyperparameters; the adjoint of Kzz comes from a
blocked reverse of its Cholesky factor.

The inducing locations Z are not trained; they stay at their seeded
draw from the training inputs.  On terrain domains the data barely
determine Z, and Adam would turn rounding-level gradients on nearly
coincident points into full-size steps.  Fixed, well-spread Z come
close to optimized ones (Burt, Rasmussen & van der Wilk, JMLR 21, 2020).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_triangular

from . import kernels
from .datasets import Dataset
from .errors import InvalidConfigError, InvalidInputError
from .linalg import chol_with_jitter, tri_inverse, tri_matmul, tri_solve
from .means import default_mean
from .methods import (
    LOG_NOISE_VARIANCE, MethodConfig, check_noise, init_kernel, noise_plan,
)
from .optim import epoch_batches, flatten, minimize, unflatten
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

    variational = True

    @property
    def num_inducing(self) -> int:
        return self.Z.shape[0]

    def predict(self, Xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return predictive_qf(self, Xn)

    def predict_mean(self, Xn: np.ndarray) -> np.ndarray:
        return predictive_qf(self, Xn)[0]

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


def _kzz_factor(Kzz: np.ndarray) -> np.ndarray:
    """Lz = chol(Kzz), the one factor of the inducing prior covariance.

    Kzz is symmetric; its transpose spares LAPACK a C-to-Fortran copy.
    `chol_with_jitter` is looked up at call time, so a tracer that
    rebinds it sees every call."""
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


def _project(Lz: np.ndarray, Kxz: np.ndarray) -> np.ndarray:
    """B = Kxz Lz^-T, the cross-covariance in whitened coordinates."""
    return tri_solve(Lz, Kxz.T).T


def _marginals(B: np.ndarray, mw: np.ndarray, Lw: np.ndarray, kxx: np.ndarray):
    """q(f) at the rows of B: the mean offset B mw from the prior mean,
    the variance kxx - |B_i|^2 + |(B Lw)_i|^2, and B Lw."""
    BL = tri_matmul(B, Lw)
    var = kxx - np.einsum("ij,ij->i", B, B) + np.einsum("ij,ij->i", BL, BL)
    return B @ mw, var, BL


def kl_term(state: SvgpState) -> float:
    """KL[q(u) || p(u)] = KL[N(mw, Lw Lw^T) || N(0, I)] for the whitened
    mean mw = `mvec` and factor Lw = `L`."""
    mw, Lw = state.mvec, state.L
    logdet_lw = float(np.log(np.diag(Lw)).sum())
    return 0.5 * (float(np.sum(Lw**2)) + float(mw @ mw) - mw.size - 2.0 * logdet_lw)


_PREDICT_CHUNK = 4096


def predictive_qf(state: SvgpState, Xstar) -> tuple[np.ndarray, np.ndarray]:
    """Marginal q(f*) at query points: the sparse-GP mean m(x*) + B mw and
    variance k** - |B_i|^2 + |(B Lw)_i|^2 with B = K*z Lz^-T, clamped at zero."""
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    Lz = _kzz_factor(kernels.gram(state.kernel, state.Z, state.Z))
    q = Xstar.shape[0]
    mean = np.empty(q)
    var = np.empty(q)
    for start in range(0, q, _PREDICT_CHUNK):
        sl = slice(start, min(start + _PREDICT_CHUNK, q))
        B = _project(Lz, kernels.gram(state.kernel, Xstar[sl], state.Z))
        kxx = kernels.gram_diag(state.kernel, Xstar[sl])
        offset, var[sl], _ = _marginals(B, state.mvec, state.L, kxx)
        mean[sl] = state.mean_fn(Xstar[sl]) + offset
    return mean, np.maximum(var, 0.0)


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


def _phi_half_diag(mat: np.ndarray) -> np.ndarray:
    out = np.tril(mat)
    out[np.diag_indices(mat.shape[0])] *= 0.5
    return out


def _chol_block_backward(D: np.ndarray, D_bar: np.ndarray) -> np.ndarray:
    """Lower-triangle adjoint of A with respect to D = chol(A), for one
    diagonal block: Phi(T + T^T) with T = D^-T Phi(D^T tril(D_bar)) D^-1."""
    P = _phi_half_diag(D.T @ np.tril(D_bar))
    # T = D^-T P D^-1 via two triangular solves
    U_t = solve_triangular(D, P.T, lower=True, trans="T", check_finite=False)  # U^T, U = P D^-1
    T = solve_triangular(D, U_t.T, lower=True, trans="T", check_finite=False)
    return _phi_half_diag(T + T.T)


# Columns per block of the Cholesky reverse; on a 1-thread OpenBLAS at
# m = 1024, 64 and 256 were both slower than 128.
_CHOL_BLOCK = 128


def _chol_backward(Lz: np.ndarray, Lz_bar: np.ndarray) -> np.ndarray:
    """Adjoint of Kzz with respect to Lz = chol(Kzz), symmetric.

    The blocked level-3 reverse of Murray 2016, "Differentiation of the
    Cholesky decomposition" (arXiv:1602.07527): it undoes a left-looking
    blocked factorization one diagonal block at a time, last block first,
    carrying the adjoint of Kzz's lower triangle in place of L_bar.  For
    the block rows j:k, with R = L[j:k, :j], D = L[j:k, j:k],
    B = L[k:, :j] and C = L[k:, j:k] (C = (A_C - B R^T) D^-T and
    D = chol(A_D - R R^T) in the forward pass):

        C_bar <- C_bar D^-1,  B_bar -= C_bar R,  D_bar -= tril(C_bar^T C),
        R_bar -= C_bar^T B,  D_bar <- block reverse,  R_bar -= (D_bar + D_bar^T) R.
    """
    m = Lz.shape[0]
    A = np.tril(Lz_bar)
    for k in range(m, 0, -_CHOL_BLOCK):
        j = max(0, k - _CHOL_BLOCK)
        R, D, B, C = Lz[j:k, :j], Lz[j:k, j:k], Lz[k:, :j], Lz[k:, j:k]
        C_bar = solve_triangular(D, A[k:, j:k].T, lower=True, trans="T", check_finite=False).T
        A[k:, j:k] = C_bar
        A[k:, :j] -= C_bar @ R
        A[j:k, j:k] -= np.tril(C_bar.T @ C)
        A[j:k, :j] -= C_bar.T @ B
        D_bar = _chol_block_backward(D, A[j:k, j:k])
        A[j:k, j:k] = D_bar
        A[j:k, :j] -= (D_bar + D_bar.T) @ R
    # the lower triangle holds dF/dA_ij for i >= j; spread it symmetrically
    return 0.5 * (A + A.T)


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

    # K and every dK/dtheta of each point pair from one kernel pass
    Kzz, dKzz = kernels.gram_and_gradients(kernel, kernels.sq_dists(Z, Z))
    Kxz, dKxz = kernels.gram_and_gradients(kernel, kernels.sq_dists(Xb, Z))
    Lz = _kzz_factor(Kzz)
    B = _project(Lz, Kxz)
    kxx = kernels.gram_diag(kernel, Xb)
    offset, s2, BL = _marginals(B, mw, Lw, kxx)
    mu = state.mean_fn(Xb) + offset
    resid = yb - mu
    elbo = w * float(np.sum(expected_loglik(mu, s2, yb, v))) - kl_term(state)

    # reverse pass down to the kernel matrices
    ebar = w * resid / v  # d elbo / d mu
    ubar = -w / (2.0 * v)  # d elbo / d s2
    B_bar = (
        np.outer(ebar, mw)
        - 2.0 * ubar[:, None] * B
        + 2.0 * ubar[:, None] * tri_matmul(BL, Lw, trans=True)
    )
    # B = Kxz Lz^-T:  Kxz_bar = B_bar Lz^-1,  Lz_bar = -Kxz_bar^T B
    Kxz_bar = solve_triangular(Lz, B_bar.T, lower=True, trans="T", check_finite=False).T
    Kzz_bar = _chol_backward(Lz, -(Kxz_bar.T @ B))
    mw_bar = B.T @ ebar - mw
    Lw_bar = _log_diag(np.tril(2.0 * (B.T @ (ubar[:, None] * BL)) - Lw), Lw)

    # Kzz_bar and Kxz_bar into the kernel hyperparameters
    kern_grads: dict[str, float] = {}
    for name in kernels.param_names(kernel):
        g = float(np.vdot(Kzz_bar, dKzz[name])) + float(np.vdot(Kxz_bar, dKxz[name]))
        if name == kernels.LOG_OUTPUTSCALE:
            g += float(np.sum(ubar * kxx))
        kern_grads[name] = g

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
    B = _project(_kzz_factor(kernels.gram(kernel, Z, Z)), kernels.gram(kernel, X, Z))
    v = check_noise(noise_var, X.shape[0], variational=True)
    M = np.eye(Z.shape[0]) + B.T @ (B / v[:, None])
    # With J the index reversal and U = chol(J M J), M = R R^T for the
    # upper-triangular R = J U J, so S_w = M^-1 = Lw Lw^T with the lower
    # factor Lw = R^-T = J U^-T J: one Cholesky and one triangular inverse.
    U, _ = chol_with_jitter(M[::-1, ::-1])
    Lw = np.ascontiguousarray(tri_inverse(U)[::-1, ::-1].T)
    resid = np.asarray(Y, dtype=float) - mean_fn(X)
    mw = Lw @ (Lw.T @ (B.T @ (resid / v)))
    return mw, Lw


# ---------------------------------------------------------------------------
# Parameter blocks (shared by the trainer and the gradient checker)
# ---------------------------------------------------------------------------


def _blocks(mvec, chol, chol_logdiag, kernel_params: dict, log_noise_var) -> dict:
    """The one parameter layout, of the state and of its gradients alike:
    variational mean, the strict lower triangle of the variational
    factor and its log diagonal, the kernel's log hyperparameters, and
    the log noise variance when the state has one.  The inducing
    locations are fixed, so they have no block."""
    li, lj = np.tril_indices(mvec.size, -1)
    blocks = {
        "variational_mean": mvec,
        "variational_chol": chol[li, lj],
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
    L[np.tril_indices(m, -1)] = blocks["variational_chol"]
    L[np.diag_indices(m)] = np.exp(blocks["variational_chol_logdiag"])
    names = kernels.param_names(state.kernel)
    return replace(
        state, mvec=blocks["variational_mean"], L=L,
        kernel=kernels.with_params(state.kernel, [blocks[name] for name in names]),
        log_noise_var=blocks.get(LOG_NOISE_VARIANCE, state.log_noise_var),
    )


def pack_state(state: SvgpState) -> np.ndarray:
    return flatten(_state_blocks(state))


def unpack_state(state: SvgpState, vec: np.ndarray) -> SvgpState:
    return _from_blocks(state, unflatten(vec, _state_blocks(state)))


def pack_gradients(state: SvgpState, grads: dict) -> np.ndarray:
    return flatten(grads, _state_blocks(state))


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
