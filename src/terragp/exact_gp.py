"""Exact Gaussian-process regression.

Everything is computed through a Cholesky factor of K + diag(noise):
the log marginal likelihood, its analytic gradients in log-parameter
space, and the posterior predictive.  The noise term is either a single
learned variance (constant across space) or a fixed per-point variance
vector supplied by a noise model; both flow through the same vector
code path so the constant case is a strict special case of the general
one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .datasets import Dataset
from .errors import InvalidConfigError, InvalidInputError, TrainingDivergedError
from .linalg import chol_solve, chol_with_jitter, tri_solve
from .means import ConstantMean, GridInterpMean, ZeroMean
from .methods import MethodConfig, init_kernel
from .optim import AdamConfig, adam_init, adam_step
from .seeding import INIT, stream_rng

NOISE_FLOOR = 1e-6  # normalized variance; prevents likelihood collapse

LOG_NOISE_VARIANCE = "log_noise_variance"
MEAN_CONSTANT = "mean_constant"

_PREDICT_CHUNK = 4096


@dataclass
class ExactGpModel:
    kernel: kernels.KernelConfig
    mean_fn: object
    noise_var: np.ndarray  # (n,) effective variances, normalized units
    homoscedastic: bool
    noise_learned: bool
    X: np.ndarray
    Y: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float
    loss_history: list = field(default_factory=list, repr=False, compare=False)

    variational = False

    def predict(self, Xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return predict_exact(self, Xn)

    def obs_noise(self, Xn: np.ndarray) -> float:
        return float(self.noise_var[0]) if self.homoscedastic else 0.0


def _noise_vector(noise_var, n: int) -> np.ndarray:
    vec = np.asarray(noise_var, dtype=float)
    if vec.ndim == 0:
        vec = np.full(n, float(vec))
    if vec.shape != (n,):
        raise InvalidInputError(f"noise vector length {vec.shape} != n ({n})")
    bad = np.flatnonzero(~(np.isfinite(vec) & (vec >= 0)))
    if bad.size:
        raise InvalidInputError(
            "noise variances must be finite and nonnegative; "
            f"noise_vector[{int(bad[0])}] = {vec[bad[0]]}"
        )
    return vec


def _factorize(X, Y, mean_fn, kernel, noise_vec):
    K = kernels.gram(kernel, X, X)
    Ky = K + np.diag(noise_vec)
    L, jitter = chol_with_jitter(Ky)
    resid = np.asarray(Y, dtype=float) - mean_fn(X)
    a = chol_solve(L, resid)
    return L, a, resid, jitter


def log_marginal_likelihood(X, Y, mean_fn, kernel, noise_var) -> float:
    """log N(Y | m(X), K + diag(noise)) via Cholesky."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    noise_vec = _noise_vector(noise_var, n)
    L, a, resid, _ = _factorize(X, Y, mean_fn, kernel, noise_vec)
    return float(
        -0.5 * resid @ a - np.log(np.diag(L)).sum() - 0.5 * n * np.log(2.0 * np.pi)
    )


def lml_gradients(
    X, Y, mean_fn, kernel, noise_var, noise_learned: bool = False
) -> tuple[float, dict[str, float]]:
    """LML and its gradients: 0.5 tr((a a^T - Ky^-1) dKy/dtheta) per
    log-space hyperparameter, plus the learned-constant mean and the
    log noise variance when they are free parameters."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    noise_vec = _noise_vector(noise_var, n)
    L, a, resid, _ = _factorize(X, Y, mean_fn, kernel, noise_vec)
    lml = float(
        -0.5 * resid @ a - np.log(np.diag(L)).sum() - 0.5 * n * np.log(2.0 * np.pi)
    )

    Kinv = chol_solve(L, np.eye(n))
    M = np.outer(a, a) - Kinv
    grads: dict[str, float] = {}
    for name, dK in kernels.gram_gradients(kernel, X, X).items():
        grads[name] = 0.5 * float(np.sum(M * dK))
    if noise_learned:
        # homoscedastic: dKy/d(log s2) = s2 * I
        grads[LOG_NOISE_VARIANCE] = 0.5 * float(noise_vec[0] * np.trace(M))
    if getattr(mean_fn, "learnable", False):
        grads[MEAN_CONSTANT] = float(np.sum(a))
    return lml, grads


def build_model(X, Y, mean_fn, kernel, noise_var, homoscedastic, noise_learned) -> ExactGpModel:
    """Assemble a model with its Cholesky and solve caches."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    noise_vec = _noise_vector(noise_var, X.shape[0])
    L, a, _, jitter = _factorize(X, Y, mean_fn, kernel, noise_vec)
    return ExactGpModel(
        kernel=kernel,
        mean_fn=mean_fn,
        noise_var=noise_vec,
        homoscedastic=bool(homoscedastic),
        noise_learned=bool(noise_learned),
        X=X,
        Y=Y,
        chol=L,
        alpha=a,
        jitter=jitter,
    )


def predict_exact(model: ExactGpModel, Xstar) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and latent variance (observation noise excluded).

    Variances are clamped at zero after roundoff.  Queries are processed
    in chunks so dense grids do not blow up memory.
    """
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    q = Xstar.shape[0]
    mean = np.empty(q)
    var = np.empty(q)
    for start in range(0, q, _PREDICT_CHUNK):
        sl = slice(start, min(start + _PREDICT_CHUNK, q))
        Ks = kernels.gram(model.kernel, model.X, Xstar[sl])  # n x chunk
        mean[sl] = model.mean_fn(Xstar[sl]) + Ks.T @ model.alpha
        V = tri_solve(model.chol, Ks)
        var[sl] = kernels.gram_diag(model.kernel, Xstar[sl]) - np.sum(V**2, axis=0)
    return mean, np.maximum(var, 0.0)


def default_mean(method: MethodConfig, stats=None, prior_grid=None):
    if method.mean_kind == "zero":
        return ZeroMean()
    if method.mean_kind == "constant":
        return ConstantMean(0.0, learnable=not method.variational)
    if method.mean_kind == "prior":
        if prior_grid is None or stats is None:
            raise InvalidConfigError(
                f"method {method.method_id!r} needs a low-resolution prior grid"
            )
        return GridInterpMean(prior_grid, stats)
    raise InvalidConfigError(f"unknown mean kind {method.mean_kind!r}")


def fit_exact(
    data: Dataset,
    method: MethodConfig,
    seed: int,
    mean_fn=None,
    noise_vector=None,
) -> ExactGpModel:
    """Maximize the LML with Adam for the configured epoch budget.

    Heteroscedastic methods must supply `noise_vector` (normalized
    per-point variances); it stays fixed during training.  Otherwise a
    single noise variance is learned, unless the method pins it via
    `fixed_noise_var`.
    """
    rng = stream_rng(seed, INIT)
    kernel = init_kernel(method, rng)
    # a learnable constant is trained in place, so train the model's own copy
    mean_fn = default_mean(method) if mean_fn is None else copy.copy(mean_fn)

    X, Y = data.X, data.Y
    n = data.n
    if method.heteroscedastic:
        if noise_vector is None:
            raise InvalidConfigError(
                f"method {method.method_id!r} requires a per-point noise vector"
            )
        noise_vec = _noise_vector(noise_vector, n)
        learn_noise = False
    elif method.fixed_noise_var is not None:
        noise_vec = np.full(n, float(method.fixed_noise_var))
        learn_noise = False
    else:
        noise_vec = np.full(n, float(method.init_noise_var))
        learn_noise = True

    names = list(kernels.param_names(kernel))
    learn_mean = getattr(mean_fn, "learnable", False)
    if learn_mean:
        names.append(MEAN_CONSTANT)
    if learn_noise:
        names.append(LOG_NOISE_VARIANCE)

    def pack() -> np.ndarray:
        vals = list(kernels.get_params(kernel))
        if learn_mean:
            vals.append(mean_fn.constant)
        if learn_noise:
            vals.append(np.log(noise_vec[0]))
        return np.array(vals)

    def unpack(vec: np.ndarray):
        nonlocal kernel, noise_vec
        nk = len(kernels.param_names(kernel))
        kernel = kernels.with_params(kernel, vec[:nk])
        i = nk
        if learn_mean:
            mean_fn.constant = float(vec[i])
            i += 1
        if learn_noise:
            noise_vec = np.full(n, float(np.exp(vec[i])))
            if not np.isfinite(noise_vec[0]):
                raise TrainingDivergedError("learned noise variance overflowed")

    adam_cfg = AdamConfig(learning_rate=method.learning_rate)
    params = pack()
    state = adam_init(params.size)
    history: list[float] = []
    for _ in range(method.epochs):
        lml, grads = lml_gradients(
            X, Y, mean_fn, kernel, noise_vec, noise_learned=learn_noise
        )
        if not np.isfinite(lml):
            raise TrainingDivergedError("log marginal likelihood became non-finite")
        history.append(-lml)
        grad_vec = -np.array([grads[name] for name in names])
        params, state = adam_step(
            state, params, grad_vec, adam_cfg, name_of=lambda i: names[i]
        )
        if learn_noise:
            params[-1] = max(params[-1], np.log(NOISE_FLOOR))
        unpack(params)

    model = build_model(
        X,
        Y,
        mean_fn,
        kernel,
        noise_vec,
        homoscedastic=not method.heteroscedastic,
        noise_learned=learn_noise,
    )
    model.loss_history = history
    return model
