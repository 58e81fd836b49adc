"""Two-stage heteroscedastic terrain model.

Stage 1 fits a smoothing GP to the log of the per-sample noise
variances and freezes it.  Stage 2 fits the terrain GP (exact or sparse
variational) whose likelihood uses the frozen stage-1 posterior mean as
a fixed log-variance field.  The noise is therefore never re-estimated
from the elevations; it comes entirely from the confidence data.

Every fitted model offers `predict(Xn)`, the mean and latent variance
at normalized points, and `obs_noise(Xn)`, the observation noise it
owns; `predict_terrain` serves any of them in meters.  Both GP kinds (`ExactGpModel`,
`SvgpState`) also offer `predict_mean(Xn)`, the mean alone, by one code
path (`exact_gp.predict_mean`): the noise field reads nothing else of
stage 1, so stage 1 skips the variance work over the queries, and on a
complete query grid (a truth raster, a `predict` target) its RBF mean
comes from two 1-D axis factors, not a q x n Gram.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import exact_gp, svgp
from .datasets import Dataset, NormStats
from .errors import InvalidInputError
from .means import ConstantMean
from .methods import NOISE_GP, MethodConfig, check_noise

# queries far outside the data can extrapolate wildly in log space;
# clamp before exponentiation
LOG_VAR_CLAMP = 20.0

# above this size stage 1 switches from the exact GP to a sparse one.
# Stage 1 is an RBF GP with a learned noise and a fixed mean.  Measured at
# n = 4096 (tracemalloc, one BLAS thread, 2-core VM): 1.6 s CPU per LML
# epoch and a 1.18 n^2-double (0.16 GB) allocation peak, which is K,
# factored and inverted in place, plus about 730 n doubles of row-panel
# temporaries (0.18 n^2 here; 0.34 n^2 at n = 2048, so the term is linear
# in n).  The build peaks at 1.06 n^2 (0.14 GB): K and about 250 n
# doubles.  Projected to n = 10 000 (n^3 time, n^2 plus those panels):
# about 23 s per epoch, 15 min for 40 epochs, and 0.86 GB per epoch
# (0.82 GB for the build).  These figures hold for scattered inputs.
# A stage 1 on a raster with M >= 0 of its N cells missing (nodata), few
# enough for `exact_gp._holes_pay`, trains, builds and holds its weights
# through the axis eigenbases of `exact_gp._grid_basis` and an M x M Schur
# correction, factored through `linalg.chol_with_jitter`, with no n x n
# array (about 2 M N doubles for the correction, none for M = 0).  The
# model keeps that basis, with the correction's M x N matrix P (M N
# doubles, 0.8 MB for the inducing sweep's n = 1536 of 1600 cells), and
# its noise field on a complete query grid holds only (nx + ny) x n
# kernel factors.  Such rasters still switch to the sparse GP above this
# size, though the grid path would stay cheap there.  At scattered
# queries the field forms its Gram one panel of queries at a time
# (`exact_gp._PANEL_BYTES`): at n = 10 000, 64 x n doubles (5 MB) beside
# the fit's n^2.
STAGE1_EXACT_MAX_N = 10_000


@dataclass
class NoiseModel:
    """Frozen GP over log noise variance (normalized target units)."""

    gp: exact_gp.ExactGpModel | svgp.SvgpState

    def log_var_mean(self, Xn: np.ndarray) -> np.ndarray:
        """Posterior mean of the log variance, clamped to +-20."""
        return np.clip(self.gp.predict_mean(Xn), -LOG_VAR_CLAMP, LOG_VAR_CLAMP)

    def noise_variances(self, Xn: np.ndarray) -> np.ndarray:
        return np.exp(self.log_var_mean(Xn))


@dataclass
class TwoStageModel:
    """The frozen stage-1 noise GP and the terrain GP trained on its
    field; each GP keeps its own loss history."""

    noise: NoiseModel
    terrain: exact_gp.ExactGpModel | svgp.SvgpState

    def predict(self, Xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.terrain.predict(Xn)

    def obs_noise(self, Xn: np.ndarray) -> np.ndarray:
        """The frozen stage-1 noise field at normalized points."""
        return self.noise.noise_variances(Xn)


def fit_gp(data: Dataset, method: MethodConfig, seed: int, mean_fn=None, noise_vector=None):
    """One GP fit: the variational trainer for variational methods, the
    exact one otherwise."""
    fit = svgp.fit_svgp if method.variational else exact_gp.fit_exact
    return fit(data, method, seed, mean_fn=mean_fn, noise_vector=noise_vector)


def fit_noise_gp(
    Xn: np.ndarray, R: np.ndarray, config: MethodConfig | None = None, seed: int = 0
) -> NoiseModel:
    """Stage 1: fit the log-variance GP and freeze it.

    `R` holds per-sample noise variances in normalized target units
    (already divided by std(Y)^2); `methods.check_noise` requires them
    finite and positive, as for a variational likelihood.  The
    prior mean is the constant mean of the log-variance targets, fixed
    on both the exact and the sparse path; the kernel and the noise are
    trained.
    """
    R = check_noise(R, np.size(R), variational=True)
    if config is None:
        config = NOISE_GP
    targets = np.log(R)
    n = targets.size

    # the noise-GP fit is itself a small regression problem; reuse the
    # generic trainers with log-variance targets and no re-normalization
    stats = NormStats(
        x_mean=np.zeros(2), x_std=np.ones(2), y_mean=0.0, y_std=1.0
    )
    data = Dataset(X=np.atleast_2d(Xn), Y=targets, R=None, stats=stats)
    if n <= STAGE1_EXACT_MAX_N:
        config = replace(config, variational=False)
    else:
        config = replace(config, variational=True, batch_size=256, num_inducing=min(1024, n))
    # fixed at the target mean: on split-noise scenes its LML gradient is
    # zero by symmetry, so training it would only follow rounding noise
    mean_fn = ConstantMean(float(targets.mean()), learnable=False)
    return NoiseModel(gp=fit_gp(data, config, seed, mean_fn=mean_fn))


def fit_terrain(
    data: Dataset,
    noise_model: NoiseModel,
    method: MethodConfig,
    seed: int,
    mean_fn=None,
    noise_vector=None,
) -> TwoStageModel:
    """Stage 2: fit the terrain GP with the frozen noise field.

    `noise_vector`, if given, is that field at `data.X` as
    `noise_model.noise_variances` returns it, evaluated once by a caller
    that fits several terrains on one dataset."""
    v = noise_model.noise_variances(data.X) if noise_vector is None else noise_vector
    terrain = fit_gp(data, method, seed, mean_fn=mean_fn, noise_vector=v)
    return TwoStageModel(noise=noise_model, terrain=terrain)


def fit_two_stage(
    data: Dataset, method: MethodConfig, seed: int, mean_fn=None
) -> TwoStageModel:
    """Both stages end to end; `data.R` supplies the variance samples."""
    if data.R is None:
        raise InvalidInputError("two-stage fitting requires per-sample variances R")
    noise_model = fit_noise_gp(data.X, data.R, seed=seed)
    return fit_terrain(data, noise_model, method, seed, mean_fn=mean_fn)


def predict_terrain(
    model, stats: NormStats, X_m: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean m, latent variance m^2, predictive variance m^2) of any
    fitted model at meter coordinates, `stats` being the normalization it
    was trained in; the predictive variance adds `model.obs_noise`."""
    Xn = stats.normalize_points(np.atleast_2d(X_m))
    mean_n, latent_n = model.predict(Xn)
    return (
        stats.denormalize_y(mean_n),
        stats.denormalize_var(latent_n),
        stats.denormalize_var(latent_n + model.obs_noise(Xn)),
    )
