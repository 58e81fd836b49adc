import os

# One BLAS thread per process, as perfbench pins it.  On a 2-core machine
# OpenBLAS's default threads slow the exact-GP epochs to about half speed
# next to the numpy work; this has to run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from terragp import exact_gp, kernels, linalg
from terragp.means import ConstantMean

# sizes that straddle the row panels of the one-triangle kernel passes
PANEL_EDGES = [
    1, linalg.ROW_PANEL - 1, linalg.ROW_PANEL, linalg.ROW_PANEL + 1, 2 * linalg.ROW_PANEL + 3,
]


def all_family_configs(rng=None, jitter_params=False):
    """One config per kernel family/nu combination, optionally with
    randomized hyperparameters."""
    combos = [
        (kernels.RBF, 2.5),
        (kernels.RATIONAL_QUADRATIC, 2.5),
        (kernels.ABS_EXP, 2.5),
        (kernels.MATERN, 0.5),
        (kernels.MATERN, 1.5),
        (kernels.MATERN, 2.5),
    ]
    out = []
    for fam, nu in combos:
        if jitter_params and rng is not None:
            out.append(
                kernels.KernelConfig(
                    fam,
                    log_lengthscale=rng.normal() * 0.3,
                    log_outputscale=rng.normal() * 0.3,
                    log_alpha=rng.normal() * 0.3,
                    nu=nu,
                )
            )
        else:
            out.append(kernels.KernelConfig(fam, nu=nu))
    return out


def family_id(cfg):
    return f"matern{cfg.nu}" if cfg.family == kernels.MATERN else cfg.family


def brute_force_posterior(X, Y, mean_fn, kernel, noise_vec, Xstar):
    """Dense posterior via explicit matrix inverse; the independent
    oracle for predict_exact."""
    K = kernels.gram(kernel, X, X) + np.diag(noise_vec)
    Kinv = np.linalg.inv(K)
    Ks = kernels.gram(kernel, X, Xstar)
    resid = Y - mean_fn(X)
    mean = mean_fn(Xstar) + Ks.T @ Kinv @ resid
    var = kernels.gram_diag(kernel, Xstar) - np.einsum(
        "ij,ij->j", Ks, Kinv @ Ks
    )
    return mean, var


def brute_force_lml(X, Y, mean_fn, kernel, noise_vec):
    """Dense multivariate normal log density via explicit inverse."""
    n = X.shape[0]
    K = kernels.gram(kernel, X, X) + np.diag(noise_vec)
    resid = Y - mean_fn(X)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(
        -0.5 * resid @ np.linalg.inv(K) @ resid
        - 0.5 * logdet
        - 0.5 * n * np.log(2 * np.pi)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_panels(monkeypatch):
    """Query panels of `exact_gp._PANEL_ALIGN` rows, the fewest a panel
    takes, so that a few hundred queries cross several panel boundaries;
    the fixture's value is that row count."""
    monkeypatch.setattr(exact_gp, "_PANEL_BYTES", 1)
    return exact_gp._PANEL_ALIGN


def random_gp_problem(rng, n=8, kernel=None, mean_const=0.3):
    X = rng.normal(size=(n, 2))
    Y = rng.normal(size=n)
    if kernel is None:
        kernel = kernels.KernelConfig(
            kernels.RBF,
            log_lengthscale=rng.normal() * 0.2,
            log_outputscale=rng.normal() * 0.2,
        )
    noise = np.exp(rng.normal(size=n) * 0.3 - 2.0)
    return X, Y, ConstantMean(mean_const, learnable=False), kernel, noise
