"""Prior mean functions for the GP models.

All of them are evaluated on normalized inputs and return normalized
target values.  The grid-backed prior wraps a low-resolution DEM with
bilinear interpolation and converts units through the dataset's
normalization statistics.
"""

from __future__ import annotations

import numpy as np

from .datasets import NormStats
from .errors import InvalidConfigError
from .grids import DemGrid, bilinear_sample
from .methods import MethodConfig


class ZeroMean:
    learnable = False

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.zeros(np.atleast_2d(X).shape[0])


class ConstantMean:
    """A single constant; learned jointly with the kernel when the
    enclosing trainer supports it."""

    def __init__(self, constant: float = 0.0, learnable: bool = True):
        self.constant = float(constant)
        self.learnable = bool(learnable)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.full(np.atleast_2d(X).shape[0], self.constant)


class GridInterpMean:
    """Bilinear interpolant of a low-resolution prior DEM.

    Queries arrive in normalized coordinates; they are mapped back to
    meters, sampled from the grid (constant extrapolation beyond the
    outer cell centers), and the elevations are normalized.
    """

    learnable = False

    def __init__(self, grid: DemGrid, stats: NormStats):
        self.grid = grid
        self.stats = stats

    def __call__(self, X: np.ndarray) -> np.ndarray:
        pts_m = self.stats.denormalize_points(np.atleast_2d(X))
        return self.stats.normalize_y(bilinear_sample(self.grid, pts_m))


def default_mean(method: MethodConfig, stats=None, prior_grid=None):
    """The mean a method asks for: a constant is learned only by exact
    fits, and the prior mean needs the low-resolution grid."""
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
