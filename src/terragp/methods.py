"""Per-method training configurations.

The five method ids carry the published training parameters: learning
rate, epochs, kernel family, and (for the variational pair) batch size
and inducing-point count.  Everything is overridable from the CLI; the
defaults here are the reference values, and a config checks its own
values when built.  `noise_plan` is the noise rule both trainers follow.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import InvalidConfigError, InvalidInputError

TOMITA = "tomita"
HAYNER = "hayner"
TORROBA = "torroba"
OURS_EXACT = "ours-exact"
OURS_VARIATIONAL = "ours-variational"

METHOD_IDS = (TOMITA, HAYNER, TORROBA, OURS_EXACT, OURS_VARIATIONAL)

NOISE_FLOOR = 1e-6  # normalized variance; prevents likelihood collapse
INIT_NOISE_VAR = 0.1  # normalized variance a learned constant noise starts from
LOG_NOISE_VARIANCE = "log_noise_variance"


def _noise_ok(var, variational: bool):
    """Every noise variance is finite, and > 0 where the variational
    likelihood divides by it (>= 0 for exact fits)."""
    return np.isfinite(var) & ((var > 0) if variational else (var >= 0))


def _is(value, kind) -> bool:
    """`value` is a `kind` of number; a bool is none."""
    return isinstance(value, kind) and not isinstance(value, (bool, np.bool_))


@dataclass(frozen=True)
class MethodConfig:
    method_id: str
    kernel_family: str
    variational: bool
    heteroscedastic: bool
    mean_kind: str  # "constant" | "zero" | "prior"
    learning_rate: float
    epochs: int
    batch_size: int | None = None
    num_inducing: int | None = None
    nu: float = 2.5
    fixed_noise_var: float | None = None  # pin the constant noise (not learned)

    def __post_init__(self):
        def require(ok, what):
            if not ok:
                raise InvalidConfigError(f"method {self.method_id!r}: {what}")

        lr = self.learning_rate
        require(_is(lr, numbers.Real) and np.isfinite(lr) and lr > 0,
                f"learning rate must be a finite number > 0, got {lr!r}")
        require(_is(self.epochs, numbers.Integral) and self.epochs >= 0,
                f"epochs must be an integer >= 0, got {self.epochs!r}")
        for name in ("batch_size", "num_inducing"):
            value = getattr(self, name)
            require(value is None or _is(value, numbers.Integral) and value >= 1,
                    f"{name} must be an integer >= 1, got {value!r}")
            require(value is not None or not self.variational, f"variational fit needs {name}")
        fixed = self.fixed_noise_var
        require(
            fixed is None or _is(fixed, numbers.Real) and _noise_ok(fixed, self.variational),
            f"fixed noise variance must be a finite number >= 0, and > 0 if variational; "
            f"got {fixed!r}",
        )


_DEFAULTS = {
    TOMITA: MethodConfig(
        method_id=TOMITA,
        kernel_family=kernels.ABS_EXP,
        variational=False,
        heteroscedastic=False,
        mean_kind="constant",
        learning_rate=0.1,
        epochs=40,
    ),
    HAYNER: MethodConfig(
        method_id=HAYNER,
        kernel_family=kernels.RBF,
        variational=False,
        heteroscedastic=False,
        mean_kind="constant",
        learning_rate=0.1,
        epochs=50,
    ),
    OURS_EXACT: MethodConfig(
        method_id=OURS_EXACT,
        kernel_family=kernels.RATIONAL_QUADRATIC,
        variational=False,
        heteroscedastic=True,
        mean_kind="prior",
        learning_rate=0.1,
        epochs=30,
    ),
    TORROBA: MethodConfig(
        method_id=TORROBA,
        kernel_family=kernels.MATERN,
        variational=True,
        heteroscedastic=False,
        mean_kind="constant",
        learning_rate=0.1,
        epochs=75,
        batch_size=256,
        num_inducing=1024,
        nu=2.5,
    ),
    OURS_VARIATIONAL: MethodConfig(
        method_id=OURS_VARIATIONAL,
        kernel_family=kernels.RATIONAL_QUADRATIC,
        variational=True,
        heteroscedastic=True,
        mean_kind="prior",
        learning_rate=0.05,
        epochs=40,
        batch_size=256,
        num_inducing=1024,
    ),
}

# Stage-1 noise GP: smoothing RBF fit on log variances.  The training
# budget is not pinned anywhere authoritative; these mirror the exact
# baselines.
NOISE_GP = MethodConfig(
    method_id="noise-gp",
    kernel_family=kernels.RBF,
    variational=False,
    heteroscedastic=False,
    mean_kind="constant",
    learning_rate=0.1,
    epochs=40,
)


def method_defaults(method_id: str) -> MethodConfig:
    if method_id not in _DEFAULTS:
        raise InvalidConfigError(
            f"unknown method {method_id!r}; expected one of {METHOD_IDS}"
        )
    return _DEFAULTS[method_id]


def with_overrides(cfg: MethodConfig, **overrides) -> MethodConfig:
    """Apply CLI overrides; None values are ignored."""
    clean = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **clean)


def check_noise(noise_var, n: int, variational: bool = False) -> np.ndarray:
    """Per-point noise variances as an (n,) array; a scalar is broadcast."""
    vec = np.asarray(noise_var, dtype=float)
    if vec.ndim == 0:
        vec = np.full(n, float(vec))
    if vec.shape != (n,):
        raise InvalidInputError(f"noise vector length {vec.shape} != n ({n})")
    bad = np.flatnonzero(~_noise_ok(vec, variational))
    if bad.size:
        raise InvalidInputError(
            f"noise variances must be finite and {'positive' if variational else 'nonnegative'}; "
            f"noise_vector[{int(bad[0])}] = {vec[bad[0]]}"
        )
    return vec


def noise_plan(method: MethodConfig, n: int, noise_vector=None):
    """(field, constant, learned): a heteroscedastic method's fixed
    per-point `noise_vector`, else one constant variance, pinned by
    `fixed_noise_var` or learned from `INIT_NOISE_VAR`."""
    if method.heteroscedastic:
        if noise_vector is None:
            raise InvalidConfigError(
                f"method {method.method_id!r} requires a per-point noise vector"
            )
        return check_noise(noise_vector, n, method.variational), None, False
    if method.fixed_noise_var is not None:
        return None, method.fixed_noise_var, False
    return None, INIT_NOISE_VAR, True


def init_kernel(method: MethodConfig, rng: np.random.Generator) -> kernels.KernelConfig:
    """Standard log-zero initialization with a small seeded perturbation."""
    cfg = kernels.KernelConfig(family=method.kernel_family, nu=method.nu)
    jolt = rng.normal(0.0, 0.01, size=len(kernels.param_names(cfg)))
    return kernels.with_params(cfg, kernels.get_params(cfg) + jolt)
