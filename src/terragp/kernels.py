"""Stationary covariance functions and their analytic derivatives.

Four families are supported: squared-exponential (RBF), rational
quadratic, absolute exponential, and Matern with half-integer
smoothness 1/2, 3/2 or 5/2 (closed forms only; the Bessel-function
general case is deliberately avoided because the closed forms are cheap
and differentiable).

Each family is written once, in `_profile`, as k_base(r2) and its slope
dk_base/d(r2); location and lengthscale derivatives follow from the
slope by the chain rule (see `gram_and_gradients`).  The rational
quadratic's shape derivative is written there too.  With
u = r2 / (2 alpha ell^2), all of it comes from one log1p(u) per entry:

    k_base = exp(-alpha log1p(u)),
    dk_base/d(r2) = -k_base / (2 ell^2 (1 + u)),
    dk_base/dlog(alpha) = alpha k_base (u / (1 + u) - log1p(u)).

The last is kept in that form: the equal 1 - 1/(1 + u) - log(1 + u)
cancels catastrophically at small u.

A symmetric Gram K(X, X) is evaluated on one triangle only, a row panel
at a time (`sym_gram`): the upper triangle of the C-ordered K, which is
the lower triangle of the Fortran-ordered K.T that LAPACK factors.
Gradients against one triangle of an adjoint (the inverse of the exact
model's covariance, or the SVGP's Kzz adjoint) come from
`sym_gradient_sums`, which recomputes each panel's K, slope and RQ shape
derivative, so no n x n dK/dtheta is ever stored.  `gram_and_gradients`
serves the rectangular cross-covariances and the 1-D grid axes.

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
    # cdist sums squared differences, so no entry is negative
    return cdist(a, b, metric="sqeuclidean")


def _profile(cfg: KernelConfig, r2: np.ndarray, with_slope: bool = False):
    """(k_base(r2), slope, dalpha): when `with_slope`, slope is
    dk_base/d(r2) and dalpha is dk_base/dlog(alpha) for the rational
    quadratic; otherwise (and dalpha for every other family) None.

    The one place the families differ; in-place updates spare the hot
    loops full-size temporaries.  Without `with_slope` the RBF, RQ and
    abs-exp profiles overwrite r2 with k, so `gram` holds one q x n array,
    and the Matern profiles hold two (3/2) or three (5/2).
    """
    ell = cfg.lengthscale
    ell2 = ell**2
    slope = dalpha = None
    out = None if with_slope else r2
    if cfg.family == RBF:
        k = np.multiply(r2, -0.5, out=out)
        k /= ell2
        np.exp(k, out=k)
        if with_slope:
            slope = k * (-0.5 / ell2)
    elif cfg.family == RATIONAL_QUADRATIC:
        u = np.divide(r2, 2.0 * cfg.alpha * ell2, out=out)
        log_base = np.log1p(u, out=out)
        k = np.multiply(log_base, -cfg.alpha, out=out)
        np.exp(k, out=k)
        if with_slope:
            slope = np.add(u, 1.0)
            np.divide(u, slope, out=u)  # u / (1 + u)
            np.divide(k, slope, out=slope)
            slope *= -0.5 / ell2
            dalpha = np.subtract(u, log_base, out=log_base)
            dalpha *= k
            dalpha *= cfg.alpha
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
        s = np.sqrt(r2, out=out)
        np.multiply(np.sqrt(2.0 * cfg.nu), s, out=s)
        s /= ell
        e = np.negative(s)
        np.exp(e, out=e)
        if cfg.nu == 1.5:
            k = np.add(1.0, s, out=s)
            k *= e
            if with_slope:
                slope = np.multiply(e, -1.5 / ell2, out=e)
        else:
            k = np.square(s)
            k /= 3.0
            one_s = np.add(1.0, s, out=s)
            k = np.add(one_s, k, out=k)
            k *= e
            if with_slope:
                slope = np.multiply(-5.0 / (6.0 * ell2), one_s, out=one_s)
                slope *= e
    return k, slope, dalpha


def _scaled_gram(cfg: KernelConfig, r2: np.ndarray) -> np.ndarray:
    """s2 * k_base(r2), written over r2."""
    k, _, _ = _profile(cfg, r2)
    k *= cfg.outputscale
    return k


def gram(cfg: KernelConfig, a, b) -> np.ndarray:
    """Covariance matrix with entries s2 * k_base(a_i, b_j)."""
    return _scaled_gram(cfg, sq_dists(a, b))


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
    K, slope, dalpha = _profile(cfg, r2, with_slope=True)
    K *= s2
    slope *= -2.0 * s2
    slope *= r2
    grads = {LOG_LENGTHSCALE: slope, LOG_OUTPUTSCALE: K}
    if dalpha is not None:
        dalpha *= s2
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
    _, slope, _ = _profile(cfg, sq_dists(a, b), with_slope=True)
    slope *= cfg.outputscale
    return slope


# Rows per panel of the one-triangle passes over a symmetric Gram.  Each
# panel's temporaries are _PANEL x n; the diagonal blocks, evaluated
# whole, repeat n * _PANEL / 2 entries of the lower triangle.
_PANEL = 128


def _row_panels(n: int):
    for i in range(0, n, _PANEL):
        yield i, min(n, i + _PANEL)


def sym_gram(cfg: KernelConfig, X) -> np.ndarray:
    """K(X, X), C-ordered, each entry of its upper triangle evaluated once.

    Row panel [i, k) is evaluated against the points from i on: the
    upper triangle, which is the lower triangle of the Fortran-ordered
    K.T that LAPACK's Cholesky reads.  The strict lower triangle is
    copied from it, so K is exactly symmetric; `linalg.chol_with_jitter`
    restores a failed attempt from that copy.  Every entry equals
    `gram(cfg, X, X)`'s bitwise.
    """
    X = _as_points(X)
    n = X.shape[0]
    if n <= _PANEL:  # one panel: the whole square
        return _scaled_gram(cfg, sq_dists(X, X))
    K = np.empty((n, n))
    for i, k in _row_panels(n):
        panel = _scaled_gram(cfg, sq_dists(X[i:k], X[i:]))
        K[i:k, i:] = panel
        K[k:, i:k] = panel[:, k - i :].T
    return K


def sym_gradient_sums(cfg: KernelConfig, X, T: np.ndarray, a=None):
    """(sums, quad): per hyperparameter, sums[name] = sum over i <= j of
    T_ij dK_ij/dtheta for the upper triangle of T, and, given `a`,
    quad[name] = a^T (dK/dtheta) a (else None), with K = K(X, X).

    T's strict lower triangle must be zero within each diagonal block
    of _PANEL rows; it is not read elsewhere.  Each panel's K, slope and
    RQ shape derivative are evaluated by `gram_and_gradients` from the
    panel's squared distances and dropped before the next: no n x n
    dK/dtheta is formed.  Off the diagonal a symmetric sum counts each
    term twice; on it only dK/dlog(s2) is nonzero, and equals s2.
    """
    X = _as_points(X)
    sums = dict.fromkeys(param_names(cfg), 0.0)
    quad = None if a is None else dict(sums)
    for i, k in _row_panels(X.shape[0]):
        _, grads = gram_and_gradients(cfg, sq_dists(X[i:k], X[i:]))
        Tp = np.ascontiguousarray(T[i:k, i:])
        for name, dK in grads.items():
            sums[name] += float(np.vdot(Tp, dK))
            if quad is not None:
                # the diagonal block once, the block right of it for both triangles
                ai = a[i:k]
                w = dK[:, : k - i] @ ai
                w += 2.0 * (dK[:, k - i :] @ a[k:])
                quad[name] += float(ai @ w)
    return sums, quad
