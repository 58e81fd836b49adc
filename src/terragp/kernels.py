"""Stationary covariance functions and their analytic derivatives.

Four families are supported: squared-exponential (RBF), rational
quadratic, absolute exponential, and Matern with half-integer
smoothness 1/2, 3/2 or 5/2 (closed forms only; the Bessel-function
general case is deliberately avoided because the closed forms are cheap
and differentiable).

Each family is written once, in `_profile`, as k_base(r2) and its slope
dk_base/d(r2); location and lengthscale derivatives follow from the
slope by the chain rule (see `gram_and_gradients`).

Every family is wrapped by an output scale, k(x, x') = s2 * k_base, and
all positive hyperparameters are stored as logarithms so unconstrained
gradient steps can never produce an invalid kernel.  Distances are
taken in whatever units the inputs carry; models feed z-scored
coordinates, so the lengthscale is dimensionless there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InvalidConfigError, InvalidInputError

RBF = "rbf"
RATIONAL_QUADRATIC = "rq"
ABS_EXP = "abs_exp"
MATERN = "matern"

FAMILIES = (RBF, RATIONAL_QUADRATIC, ABS_EXP, MATERN)
MATERN_NUS = (0.5, 1.5, 2.5)

LOG_LENGTHSCALE = "log_lengthscale"
LOG_OUTPUTSCALE = "log_outputscale"
LOG_ALPHA = "log_alpha"


@dataclass(frozen=True)
class KernelConfig:
    """A kernel family plus its log-space hyperparameters.

    `log_alpha` is meaningful only for the rational quadratic family and
    `nu` only for Matern; both are carried (and ignored) elsewhere.
    """

    family: str
    log_lengthscale: float = 0.0
    log_outputscale: float = 0.0
    log_alpha: float = 0.0
    nu: float = 2.5

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidConfigError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family == MATERN and self.nu not in MATERN_NUS:
            raise InvalidConfigError(
                f"matern nu must be one of {MATERN_NUS}, got {self.nu}"
            )
        for name in (LOG_LENGTHSCALE, LOG_OUTPUTSCALE, LOG_ALPHA):
            if not np.isfinite(getattr(self, name)):
                raise InvalidConfigError(f"{name} must be finite")

    @property
    def lengthscale(self) -> float:
        return float(np.exp(self.log_lengthscale))

    @property
    def outputscale(self) -> float:
        return float(np.exp(self.log_outputscale))

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha))


def param_names(cfg: KernelConfig) -> list[str]:
    """Names of the optimizable log-space hyperparameters, in pack order."""
    names = [LOG_LENGTHSCALE, LOG_OUTPUTSCALE]
    if cfg.family == RATIONAL_QUADRATIC:
        names.append(LOG_ALPHA)
    return names


def get_params(cfg: KernelConfig) -> np.ndarray:
    return np.array([getattr(cfg, n) for n in param_names(cfg)], dtype=float)


def with_params(cfg: KernelConfig, values) -> KernelConfig:
    return replace(cfg, **dict(zip(param_names(cfg), map(float, values))))


def _as_points(pts) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(pts, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("kernel inputs must be finite")
    return arr


def sq_dists(a, b) -> np.ndarray:
    """Squared Euclidean distances between the rows of two point sets."""
    a, b = _as_points(a), _as_points(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    r2 = cdist(a, b, metric="sqeuclidean")
    return np.maximum(r2, 0.0, out=r2)


def _profile(cfg: KernelConfig, r2: np.ndarray, with_slope: bool = False):
    """k_base(r2) and, when `with_slope`, dk_base/d(r2) (else None).

    The one place the families differ; in-place updates spare the hot
    loops full-size temporaries.  Without `with_slope` the RBF, RQ and
    abs-exp profiles overwrite r2 with k, so `gram` holds one q x n array.
    """
    ell = cfg.lengthscale
    ell2 = ell**2
    slope = None
    out = None if with_slope else r2
    if cfg.family == RBF:
        k = np.multiply(r2, -0.5, out=out)
        k /= ell2
        np.exp(k, out=k)
        if with_slope:
            slope = k * (-0.5 / ell2)
    elif cfg.family == RATIONAL_QUADRATIC:
        base = np.divide(r2, 2.0 * cfg.alpha * ell2, out=out)
        base += 1.0
        k = np.power(base, -cfg.alpha, out=out)
        if with_slope:
            slope = np.divide(k, base, out=base)
            slope *= -0.5 / ell2
    elif cfg.family == ABS_EXP or cfg.nu == 0.5:
        r = np.sqrt(r2, out=out)
        k = np.negative(r, out=out)
        k /= ell
        np.exp(k, out=k)
        if with_slope:
            # not differentiable at r = 0; use the subgradient 0 there
            slope = np.divide(k, r, out=np.zeros_like(r), where=r > 0.0)
            slope *= -0.5 / ell
    else:  # matern 3/2 or 5/2
        s = np.sqrt(2.0 * cfg.nu) * np.sqrt(r2) / ell
        e = np.exp(-s)
        if cfg.nu == 1.5:
            k = (1.0 + s) * e
            if with_slope:
                slope = e * (-1.5 / ell2)
        else:
            k = (1.0 + s + s**2 / 3.0) * e
            if with_slope:
                slope = (-5.0 / (6.0 * ell2)) * (1.0 + s) * e
    return k, slope


def gram(cfg: KernelConfig, a, b) -> np.ndarray:
    """Covariance matrix with entries s2 * k_base(a_i, b_j)."""
    k, _ = _profile(cfg, sq_dists(a, b))
    k *= cfg.outputscale
    return k


def eval_kernel(cfg: KernelConfig, x, xp) -> float:
    """Covariance between two single points."""
    return float(gram(cfg, np.reshape(x, (1, -1)), np.reshape(xp, (1, -1)))[0, 0])


def gram_diag(cfg: KernelConfig, a) -> np.ndarray:
    """diag k(a, a); constant s2 for these stationary families."""
    a = _as_points(a)
    return np.full(a.shape[0], cfg.outputscale)


def gram_and_gradients(cfg: KernelConfig, r2: np.ndarray):
    """(K, dK/dtheta), as `gram` and `gram_gradients`, from one `_profile` pass.

    Every family depends on r2 only through r2 / ell^2, so by the chain
    rule dK/dlog(ell) = -2 r2 dK/d(r2); dK/dlog(s2) = K, the same array.
    """
    s2 = cfg.outputscale
    K, slope = _profile(cfg, r2, with_slope=True)
    K *= s2
    slope *= -2.0 * s2
    slope *= r2
    grads = {LOG_LENGTHSCALE: slope, LOG_OUTPUTSCALE: K}
    if cfg.family == RATIONAL_QUADRATIC:
        u = r2 / (2.0 * cfg.alpha * cfg.lengthscale**2)
        dalpha = u / (1.0 + u)
        dalpha -= np.log1p(u)
        dalpha *= K * cfg.alpha
        grads[LOG_ALPHA] = dalpha
    return K, grads


def gram_gradients(cfg: KernelConfig, a, b) -> dict[str, np.ndarray]:
    """dK/dtheta for each log-space hyperparameter in `param_names` order."""
    return gram_and_gradients(cfg, sq_dists(a, b))[1]


def gram_dr2(cfg: KernelConfig, a, b) -> np.ndarray:
    """dK/d(r2) entrywise, the derivative with respect to point locations
    by the chain rule; the subgradient 0 at coincident points for the
    non-differentiable absolute-exponential and Matern-1/2 families.
    No trainer calls it, since no trainer moves points."""
    _, slope = _profile(cfg, sq_dists(a, b), with_slope=True)
    slope *= cfg.outputscale
    return slope
