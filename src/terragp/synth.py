"""Procedural lunar-like terrain and shadow-derived uncertainty maps.

A desk-scale stand-in for rendered synthetic datasets: a spectral
fractal base (power spectrum ~ 1/f^roughness) plus parabolic crater
bowls with raised, cosine-tapered rims.  Everything is deterministic
for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .grids import DemGrid, make_grid
from .seeding import SYNTH, stream_rng

RIM_WIDTH_FRACTION = 0.4  # rim half-width as a fraction of the crater radius
DEPTH_RATIO = 0.3  # crater depth as a fraction of its radius
# the SynthParams fields that must hold finite numbers
_REAL_FIELDS = (
    "amplitude", "roughness", "radius_min", "radius_max", "rim_fraction", "sun_azimuth",
    "sun_elevation", "var_dark", "var_lit", "cellsize",
)


@dataclass
class SynthParams:
    size: int = 64
    amplitude: float = 2.0  # RMS of the fractal base, meters
    roughness: float = 3.2  # spectral exponent; larger = smoother
    crater_count: int = 3
    radius_min: float = 3.0  # cells
    radius_max: float = 6.0  # cells
    rim_fraction: float = 0.35  # rim height as a fraction of crater depth
    sun_azimuth: float = 315.0  # degrees clockwise from north
    sun_elevation: float = 20.0  # degrees above horizon
    var_dark: float = 1.2  # noise variance in full shadow, m^2
    var_lit: float = 0.12  # noise variance floor in full light, m^2
    cellsize: float = 1.0  # meters
    seed: int = 0
    craters: tuple | None = None  # explicit (col, row, radius) triples

    def __post_init__(self):
        for name in _REAL_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.size < 2:
            raise InvalidConfigError("grid size must be at least 2")
        if not (0.0 < self.sun_elevation <= 90.0):
            raise InvalidConfigError("sun elevation must lie in (0, 90] degrees")
        if self.crater_count < 0:
            raise InvalidConfigError("crater count must be nonnegative")
        if self.crater_count > 0 and self.craters is None:
            if not (0 < self.radius_min <= self.radius_max):
                raise InvalidConfigError("need 0 < radius_min <= radius_max")
            if self.radius_max > self.size / 2:
                raise InvalidConfigError("crater radius range must fit the grid")
        if self.amplitude < 0:
            raise InvalidConfigError("amplitude must be nonnegative")
        if self.var_dark < self.var_lit or self.var_lit < 0:
            raise InvalidConfigError("need var_dark >= var_lit >= 0")


def _fractal_base(n: int, roughness: float, amplitude: float, rng) -> np.ndarray:
    white = rng.standard_normal((n, n))
    if amplitude == 0.0:
        return np.zeros((n, n))
    fx = np.fft.fftfreq(n)
    freq = np.sqrt(fx[None, :] ** 2 + fx[:, None] ** 2)
    shaping = np.zeros_like(freq)
    nz = freq > 0
    shaping[nz] = freq[nz] ** (-roughness / 2.0)
    field = np.real(np.fft.ifft2(np.fft.fft2(white) * shaping))
    rms = field.std()
    if rms == 0.0:
        return np.zeros((n, n))
    return field / rms * amplitude


def _stamp_crater(values, col, row, radius_cells, rim_fraction, cellsize):
    n = values.shape[0]
    jj, ii = np.meshgrid(np.arange(n) + 0.5, np.arange(n) + 0.5)
    rho = np.sqrt((jj - col) ** 2 + (ii - row) ** 2)  # cells
    depth = DEPTH_RATIO * radius_cells * cellsize
    bowl = -depth * np.maximum(0.0, 1.0 - (rho / radius_cells) ** 2)
    w = RIM_WIDTH_FRACTION * radius_cells
    near_rim = np.abs(rho - radius_cells) <= w
    rim = np.zeros_like(rho)
    rim[near_rim] = (
        rim_fraction
        * depth
        * np.cos(np.pi * (rho[near_rim] - radius_cells) / (2.0 * w)) ** 2
    )
    values += bowl + rim


def synth_terrain(params: SynthParams) -> DemGrid:
    """Generate the full-resolution reference terrain."""
    rng = stream_rng(params.seed, SYNTH)
    values = _fractal_base(params.size, params.roughness, params.amplitude, rng)
    if params.craters is not None:
        placed = params.craters
    else:
        placed = [
            (
                rng.uniform(0, params.size),
                rng.uniform(0, params.size),
                rng.uniform(params.radius_min, params.radius_max),
            )
            for _ in range(params.crater_count)
        ]
    for col, row, radius in placed:
        _stamp_crater(values, col, row, radius, params.rim_fraction, params.cellsize)
    return make_grid(values, cellsize=params.cellsize)


def split_variance_grid(like: DemGrid, var_quiet: float, var_noisy: float) -> DemGrid:
    """A left/right split variance field: quiet west half, noisy east half.

    Used to build scenes where the spatial noise structure is known
    exactly, e.g. for calibration comparisons.
    """
    if not (0 <= var_quiet < math.inf and 0 <= var_noisy < math.inf):
        raise InvalidConfigError(
            f"variances must be finite and nonnegative, got {var_quiet} and {var_noisy}"
        )
    var = np.full_like(like.values, var_quiet)
    var[:, like.ncols // 2 :] = var_noisy
    return like.with_values(var)
