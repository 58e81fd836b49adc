"""Training datasets extracted from grids, with z-score normalization.

Inputs and elevations are z-scored per axis; noise variances are scaled
by 1/std(Y)^2 so they stay consistent with the normalized targets.  All
models train in these normalized units and the stored statistics invert
the transform at prediction time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, InvalidInputError
from .grids import DemGrid


@dataclass
class NormStats:
    x_mean: np.ndarray  # (2,)
    x_std: np.ndarray  # (2,)
    y_mean: float
    y_std: float

    def normalize_points(self, pts_m: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(pts_m) - self.x_mean) / self.x_std

    def denormalize_points(self, pts_n: np.ndarray) -> np.ndarray:
        return np.atleast_2d(pts_n) * self.x_std + self.x_mean

    def normalize_y(self, y_m: np.ndarray) -> np.ndarray:
        return (np.asarray(y_m, dtype=float) - self.y_mean) / self.y_std

    def denormalize_y(self, y_n: np.ndarray) -> np.ndarray:
        return np.asarray(y_n, dtype=float) * self.y_std + self.y_mean

    def normalize_var(self, v_m2: np.ndarray) -> np.ndarray:
        return np.asarray(v_m2, dtype=float) / self.y_std**2

    def denormalize_var(self, v_n: np.ndarray) -> np.ndarray:
        return np.asarray(v_n, dtype=float) * self.y_std**2


@dataclass
class Dataset:
    """Normalized samples: inputs X (n, 2), targets Y (n,), optional
    per-sample noise variances R (n,)."""

    X: np.ndarray
    Y: np.ndarray
    R: np.ndarray | None
    stats: NormStats

    @property
    def n(self) -> int:
        return self.X.shape[0]


def compute_stats(X_m: np.ndarray, Y_m: np.ndarray) -> NormStats:
    """Per-axis means and standard deviations of the inputs and targets.

    Finite but huge values (say, a cellsize of 1e300) overflow the sums
    and squares; such data cannot be normalized, and a model saved from
    it could not be loaded, so it is refused here instead."""
    X_m = np.atleast_2d(np.asarray(X_m, dtype=float))
    Y_m = np.asarray(Y_m, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x_mean, x_std = X_m.mean(axis=0), X_m.std(axis=0)
        y_mean, y_std = float(Y_m.mean()), float(Y_m.std())
    for name, value in (("x mean", x_mean), ("x standard deviation", x_std),
                        ("y mean", y_mean), ("y standard deviation", y_std)):
        if not np.all(np.isfinite(value)):
            raise InvalidInputError(f"{name} is not finite ({value}); cannot normalize")
    # degenerate axes (single row/column grids, flat terrain) keep scale 1
    x_std = np.where(x_std > 0, x_std, 1.0)
    if y_std == 0.0:
        y_std = 1.0
    return NormStats(x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)


def from_arrays(X_m, Y_m, R_m2=None) -> Dataset:
    """Build a normalized dataset from raw meter-unit arrays."""
    X_m = np.atleast_2d(np.asarray(X_m, dtype=float))
    Y_m = np.asarray(Y_m, dtype=float)
    if X_m.shape[0] != Y_m.shape[0]:
        raise InvalidInputError("X and Y lengths differ")
    if X_m.shape[0] == 0:
        raise EmptyDatasetError("dataset has no samples")
    stats = compute_stats(X_m, Y_m)
    R = None
    if R_m2 is not None:
        R_m2 = np.asarray(R_m2, dtype=float)
        if R_m2.shape[0] != Y_m.shape[0]:
            raise InvalidInputError("R and Y lengths differ")
        # a tiny std(Y) can overflow R to inf; its consumer,
        # `two_stage.fit_noise_gp`, refuses non-finite variances
        with np.errstate(over="ignore"):
            R = stats.normalize_var(R_m2)
    return Dataset(
        X=stats.normalize_points(X_m),
        Y=stats.normalize_y(Y_m),
        R=R,
        stats=stats,
    )


def grid_cells(X) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(xs, ys, cells) when the rows of X are distinct cells of the
    product of an ascending xs and ys in row-major order (x fastest), as
    `grid_to_dataset` yields a raster, with or without nodata cells;
    None for any other point set.  `cells` holds each row's index
    iy nx + ix in the ny x nx grid, arange(n) for the complete product.
    Coordinates are compared exactly; normalization is elementwise, so it
    keeps a grid's equal coordinates equal.  A cell that appears twice,
    a row of y that appears in two runs and a non-finite coordinate make
    X no grid.  Every array here holds O(n) values, whatever nx ny is."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != 2 or X.shape[0] == 0:
        return None
    x, y = X[:, 0], X[:, 1]
    starts = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    xs, ys = np.unique(x), y[starts]
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()) or np.unique(ys).size < ys.size:
        return None
    cols = np.searchsorted(xs, x)
    ascending = np.diff(cols) > 0
    ascending[starts[1:] - 1] = True  # a row may begin at any column
    if not ascending.all():
        return None
    rows = np.repeat(np.arange(ys.size), np.diff(np.append(starts, x.size)))
    return xs, ys, rows * xs.size + cols


def grid_to_dataset(dem: DemGrid, var_grid: DemGrid | None = None) -> Dataset:
    """One sample per non-nodata cell, located at the cell center."""
    if var_grid is not None and dem.values.shape != var_grid.values.shape:
        raise InvalidInputError(
            f"variance grid shape {var_grid.values.shape} does not match "
            f"dem shape {dem.values.shape}"
        )
    mask = dem.data_mask().ravel()
    if not mask.any():
        raise EmptyDatasetError("all cells are nodata")
    X_m = dem.cell_centers()[mask]
    Y_m = dem.values.ravel()[mask]
    R_m2 = var_grid.values.ravel()[mask] if var_grid is not None else None
    return from_arrays(X_m, Y_m, R_m2)

