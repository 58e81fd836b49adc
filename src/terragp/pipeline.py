"""End-to-end orchestration shared by the CLI and the test suites.

The data protocol: synthesize a full-resolution reference terrain, keep
it untouched as truth, train on its factor-2 decimation with injected
white noise, use the factor-5 decimation as a low-resolution mean
prior, and evaluate dense predictions back at the full resolution.

Prediction serves every model kind `fit_method` returns through the
`predict`/`obs_noise` interface described in `two_stage`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import metrics, two_stage
from .datasets import Dataset, NormStats, from_arrays, grid_to_dataset
from .errors import DataFormatError, InvalidConfigError
from .grids import DemGrid, downsample, hillshade, inject_noise, shadow_uncertainty
from .means import GridInterpMean, default_mean
from .methods import NOISE_GP, MethodConfig, OURS_VARIATIONAL, method_defaults, with_overrides
from .seeding import SYNTH, stream_rng
from .synth import SynthParams, split_variance_grid, synth_terrain

TRAIN_FACTOR = 2
PRIOR_FACTOR = 5


@dataclass
class Scene:
    truth: DemGrid  # full-resolution reference
    dem: DemGrid  # factor-2 decimation, noise free
    train: DemGrid  # dem with injected heteroscedastic noise
    prior: DemGrid  # factor-5 decimation
    uncertainty: DemGrid  # variance map on the train grid


def make_scene(
    params: SynthParams, noise_mode: str = "shadow", split_ratio: float = 10.0
) -> Scene:
    """Build the five-grid protocol from one synthetic terrain."""
    truth = synth_terrain(params)
    if noise_mode == "shadow":
        shade = hillshade(truth, params.sun_azimuth, params.sun_elevation)
        var_full = shadow_uncertainty(shade, params.var_dark, params.var_lit)
    elif noise_mode == "split":
        var_full = split_variance_grid(
            truth, params.var_lit, params.var_lit * split_ratio
        )
    else:
        raise InvalidConfigError(f"unknown noise mode {noise_mode!r}")
    dem = downsample(truth, TRAIN_FACTOR)
    uncertainty = downsample(var_full, TRAIN_FACTOR)
    train = inject_noise(dem, uncertainty, params.seed)
    prior = downsample(truth, PRIOR_FACTOR)
    return Scene(truth=truth, dem=dem, train=train, prior=prior, uncertainty=uncertainty)


# ---------------------------------------------------------------------------
# Fitting and prediction over grids
# ---------------------------------------------------------------------------


def fit_method(
    method: MethodConfig,
    train: DemGrid,
    uncertainty: DemGrid | None,
    prior: DemGrid | None,
    seed: int,
):
    """Fit one method on grids; returns (model, stats, loss_history), the
    history being the terrain GP's (a two-stage model's stage-1 history
    stays on `model.noise.gp`)."""
    if method.heteroscedastic and uncertainty is None:
        raise InvalidConfigError(
            f"method {method.method_id!r} needs an uncertainty grid"
        )
    if uncertainty is not None and not train.same_geometry(uncertainty):
        raise DataFormatError("train and uncertainty grids must share geometry")
    data = grid_to_dataset(train, uncertainty)
    mean_fn = default_mean(method, stats=data.stats, prior_grid=prior)
    if method.heteroscedastic:
        model = two_stage.fit_two_stage(data, method, seed, mean_fn=mean_fn)
        return model, data.stats, list(model.terrain.loss_history)
    model = two_stage.fit_gp(data, method, seed, mean_fn=mean_fn)
    return model, data.stats, list(model.loss_history)


def predict_grid(model, stats: NormStats, geometry: DemGrid):
    """Dense prediction at a target grid's cell centers; returns mean,
    latent-variance and predictive-variance grids."""
    X_m = geometry.cell_centers()
    mean_m, latent_m2, pred_m2 = two_stage.predict_terrain(model, stats, X_m)
    shape = geometry.values.shape
    return (
        geometry.with_values(mean_m.reshape(shape)),
        geometry.with_values(latent_m2.reshape(shape)),
        geometry.with_values(pred_m2.reshape(shape)),
    )


def evaluate_grids(
    mean_grid: DemGrid,
    var_grid: DemGrid,
    truth_grid: DemGrid,
    variance_kind: str = "predictive",
    normalized_ause: bool = False,
) -> metrics.EvalReport:
    for other in (var_grid, truth_grid):
        if not mean_grid.same_geometry(other):
            raise DataFormatError("mean/var/truth grids must share geometry")
    mask = truth_grid.data_mask() & mean_grid.data_mask() & var_grid.data_mask()
    if not mask.any():
        raise DataFormatError("no overlapping data cells to evaluate")
    return metrics.evaluate(
        mean_grid.values[mask],
        var_grid.values[mask],
        truth_grid.values[mask],
        variance_kind=variance_kind,
        normalized_ause=normalized_ause,
    )


# ---------------------------------------------------------------------------
# Inducing-point sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    n: int
    m_inducing: int
    rmse: float
    wall_seconds: float


def _sweep_dataset(n: int, seed: int) -> tuple[Dataset, Scene]:
    """A scene sized so the train grid holds at least n points, then a
    seeded subsample down to exactly n.

    The terrain is rougher than the default scene so the inducing-point
    budget is the binding constraint rather than the mean prior.
    """
    side_train = int(np.ceil(np.sqrt(n)))
    size = TRAIN_FACTOR * side_train
    radius_max = min(10.0, size / 2.0)
    params = SynthParams(
        size=size,
        seed=seed,
        roughness=2.4,
        crater_count=6,
        radius_min=min(3.0, radius_max),
        radius_max=radius_max,
    )
    scene = make_scene(params)
    mask = scene.train.data_mask().ravel()
    X_m = scene.train.cell_centers()[mask]
    Y_m = scene.train.values.ravel()[mask]
    R_m2 = scene.uncertainty.values.ravel()[mask]
    total = X_m.shape[0]
    if n > total:
        raise InvalidConfigError(f"dataset size {n} exceeds available {total} cells")
    idx = stream_rng(seed, SYNTH, n).choice(total, size=n, replace=False)
    idx.sort()
    return from_arrays(X_m[idx], Y_m[idx], R_m2[idx]), scene


def run_sweep(
    sizes,
    inducing_counts,
    seed: int,
    epochs: int | None = None,
    noise_epochs: int | None = None,
    batch_size: int | None = None,
) -> list[SweepRow]:
    """Cross-product sweep of dataset size x inducing count.

    The stage-1 noise model is fit, and its field at the training points
    evaluated, once per dataset size; the reported wall time covers only
    the variational terrain fit, which is the part whose cost scales
    with the inducing count.
    """
    rows: list[SweepRow] = []
    base = method_defaults(OURS_VARIATIONAL)
    base = with_overrides(base, epochs=epochs, batch_size=batch_size)
    noise_cfg = NOISE_GP if noise_epochs is None else replace(NOISE_GP, epochs=noise_epochs)

    for n in sorted(int(s) for s in sizes):
        data, scene = _sweep_dataset(n, seed)
        noise_model = two_stage.fit_noise_gp(data.X, data.R, config=noise_cfg, seed=seed)
        noise_vector = noise_model.noise_variances(data.X)
        mean_fn = GridInterpMean(scene.prior, data.stats)
        truth_pts = scene.truth.cell_centers()
        truth_vals = scene.truth.values.ravel()
        for m in sorted(int(m) for m in inducing_counts):
            method = with_overrides(base, num_inducing=m)
            t0 = time.perf_counter()
            model = two_stage.fit_terrain(
                data, noise_model, method, seed, mean_fn=mean_fn, noise_vector=noise_vector
            )
            wall = time.perf_counter() - t0
            mean_m, _, _ = two_stage.predict_terrain(model, data.stats, truth_pts)
            rows.append(
                SweepRow(
                    n=n,
                    m_inducing=m,
                    rmse=metrics.rmse(mean_m, truth_vals),
                    wall_seconds=wall,
                )
            )
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    out = ["n,m_inducing,rmse,wall_seconds"]
    for r in rows:
        out.append(f"{r.n},{r.m_inducing},{r.rmse:.17g},{r.wall_seconds:.6f}")
    return "\n".join(out) + "\n"
