"""Georeferenced elevation/variance rasters and the data protocol ops.

A `DemGrid` stores row-major values with row 0 at the northern edge.
Cell (i, j) is centered at

    x = xllcorner + (j + 0.5) * cellsize
    y = yllcorner + (nrows - i - 0.5) * cellsize

The interchange format is the ESRI ASCII grid, written at full decimal
precision so read(write(g)) reproduces g exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataFormatError, InvalidConfigError, InvalidInputError
from .seeding import NOISE_INJECT, stream_rng

DEFAULT_NODATA = -9999.0
# meters by which two grids' corners and cellsizes may differ and still
# be the same geometry
GEOMETRY_TOL = 1e-9

# NODATA_VALUE is optional; each lower-left coordinate is given either as
# the cell corner or as the cell center (corner = center - cellsize / 2)
_HEADER_KEYS = (
    "ncols", "nrows", "xllcorner", "yllcorner", "xllcenter", "yllcenter", "cellsize",
    "nodata_value",
)


@dataclass
class DemGrid:
    ncols: int
    nrows: int
    xllcorner: float
    yllcorner: float
    cellsize: float
    nodata: float
    values: np.ndarray  # (nrows, ncols), row 0 = northernmost

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.ncols < 1 or self.nrows < 1:
            raise InvalidConfigError("grid dimensions must be positive")
        if not all(map(math.isfinite, (self.xllcorner, self.yllcorner, self.cellsize))):
            raise InvalidConfigError("grid corners and cellsize must be finite")
        far_corner = (self.xllcorner + self.ncols * self.cellsize,
                      self.yllcorner + self.nrows * self.cellsize)
        if not all(map(math.isfinite, far_corner)):
            raise InvalidConfigError("grid extent (corner + cells x cellsize) must be finite")
        if self.cellsize <= 0:
            raise InvalidConfigError("cellsize must be positive")
        if self.values.shape != (self.nrows, self.ncols):
            raise InvalidConfigError(
                f"values shape {self.values.shape} does not match "
                f"(nrows, ncols)=({self.nrows}, {self.ncols})"
            )

    def x_centers(self) -> np.ndarray:
        return self.xllcorner + (np.arange(self.ncols) + 0.5) * self.cellsize

    def y_centers(self) -> np.ndarray:
        """Per-row center y, north to south (descending)."""
        return self.yllcorner + (self.nrows - np.arange(self.nrows) - 0.5) * self.cellsize

    def cell_centers(self) -> np.ndarray:
        """(nrows*ncols, 2) array of (x, y) centers in row-major order."""
        xs = self.x_centers()
        ys = self.y_centers()
        xx, yy = np.meshgrid(xs, ys)
        return np.column_stack([xx.ravel(), yy.ravel()])

    def data_mask(self) -> np.ndarray:
        return self.values != self.nodata

    def with_values(self, values: np.ndarray) -> "DemGrid":
        return replace(self, values=np.asarray(values, dtype=float))

    def same_geometry(self, other: "DemGrid") -> bool:
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and abs(self.xllcorner - other.xllcorner) <= GEOMETRY_TOL
            and abs(self.yllcorner - other.yllcorner) <= GEOMETRY_TOL
            and abs(self.cellsize - other.cellsize) <= GEOMETRY_TOL
        )


def make_grid(values, xllcorner=0.0, yllcorner=0.0, cellsize=1.0, nodata=DEFAULT_NODATA) -> DemGrid:
    values = np.asarray(values, dtype=float)
    return DemGrid(
        ncols=values.shape[1],
        nrows=values.shape[0],
        xllcorner=float(xllcorner),
        yllcorner=float(yllcorner),
        cellsize=float(cellsize),
        nodata=float(nodata),
        values=values,
    )


# ---------------------------------------------------------------------------
# ESRI ASCII grid I/O
# ---------------------------------------------------------------------------


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _lower_left(header: dict[str, float], axis: str, path) -> float:
    corner, center = header.get(f"{axis}llcorner"), header.get(f"{axis}llcenter")
    if corner is not None and center is not None:
        raise DataFormatError(
            f"{path}: header gives both {axis.upper()}LLCORNER and {axis.upper()}LLCENTER"
        )
    return corner if center is None else center - 0.5 * header["cellsize"]


def read_asc(path) -> DemGrid:
    """Parse an ESRI ASCII grid; raises DataFormatError with a line number.

    The header is the run of leading lines that do not start with a
    number; the cell values follow it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: byte {exc.start} is not UTF-8 text") from None

    header: dict[str, float] = {}
    body = len(lines)
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts or _is_number(parts[0]):
            body = lineno - 1
            break
        if len(parts) != 2:
            raise DataFormatError(f"{path}: line {lineno}: expected 'KEY value' header")
        key = parts[0].lower()
        if key not in _HEADER_KEYS:
            raise DataFormatError(f"{path}: line {lineno}: unknown header key {parts[0]!r}")
        if key in header:
            raise DataFormatError(f"{path}: line {lineno}: repeated header key {parts[0]!r}")
        try:
            header[key] = float(parts[1])
        except ValueError:
            header[key] = math.nan
        if not math.isfinite(header[key]):
            raise DataFormatError(
                f"{path}: line {lineno}: header value {parts[1]!r} is not a finite number"
            )
        if key in ("ncols", "nrows") and (header[key] < 1 or not header[key].is_integer()):
            raise DataFormatError(
                f"{path}: line {lineno}: {parts[0]} must be a positive integer, got {parts[1]!r}"
            )
    missing = [k for k in ("ncols", "nrows", "cellsize") if k not in header] + [
        f"{axis}llcorner" for axis in "xy"
        if f"{axis}llcorner" not in header and f"{axis}llcenter" not in header
    ]
    if missing:
        raise DataFormatError(f"{path}: missing header keys {missing}")
    xllcorner, yllcorner = (_lower_left(header, axis, path) for axis in "xy")

    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    flat: list[float] = []
    for lineno, line in enumerate(lines[body:], start=body + 1):
        for tok in line.split():
            try:
                value = float(tok)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{path}: line {lineno}: token {tok!r} is not a finite number"
                )
            flat.append(value)
    expected = ncols * nrows
    if len(flat) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} values ({nrows}x{ncols}), found {len(flat)}"
        )
    values = np.array(flat, dtype=float).reshape(nrows, ncols)
    try:
        return DemGrid(
            ncols=ncols,
            nrows=nrows,
            xllcorner=xllcorner,
            yllcorner=yllcorner,
            cellsize=header["cellsize"],
            nodata=header.get("nodata_value", DEFAULT_NODATA),
            values=values,
        )
    except InvalidConfigError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def write_asc(dem: DemGrid, path) -> None:
    """Write at 17 significant digits so the roundtrip is exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"NCOLS {dem.ncols}\n")
        fh.write(f"NROWS {dem.nrows}\n")
        fh.write(f"XLLCORNER {dem.xllcorner:.17g}\n")
        fh.write(f"YLLCORNER {dem.yllcorner:.17g}\n")
        fh.write(f"CELLSIZE {dem.cellsize:.17g}\n")
        fh.write(f"NODATA_VALUE {dem.nodata:.17g}\n")
        for row in dem.values:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Protocol operations
# ---------------------------------------------------------------------------


def downsample(dem: DemGrid, factor: int) -> DemGrid:
    """Stride decimation anchored at the top-left (northwest) cell.

    The corners are shifted so each sampled cell keeps its world-space
    center; the coarse cell footprint is centered on the fine cell it
    was sampled from.
    """
    factor = int(factor)
    if factor < 1:
        raise InvalidConfigError("downsample factor must be >= 1")
    if factor > dem.nrows or factor > dem.ncols:
        raise InvalidConfigError(
            f"downsample factor {factor} exceeds grid dimensions "
            f"({dem.nrows}x{dem.ncols})"
        )
    values = dem.values[::factor, ::factor].copy()
    nrows, ncols = values.shape
    c = dem.cellsize
    return DemGrid(
        ncols=ncols,
        nrows=nrows,
        xllcorner=dem.xllcorner + c * (1 - factor) / 2.0,
        yllcorner=dem.yllcorner + c * (dem.nrows - factor * nrows) + c * (factor - 1) / 2.0,
        cellsize=c * factor,
        nodata=dem.nodata,
        values=values,
    )


def hillshade(dem: DemGrid, azimuth_deg: float, elevation_deg: float) -> DemGrid:
    """Lambertian illumination in [0, 1] from surface normals.

    Normals come from central differences (one-sided at edges); a flat
    grid shades uniformly to sin(elevation).  Azimuth is degrees
    clockwise from north.
    """
    if dem.nrows < 2 or dem.ncols < 2:
        raise InvalidConfigError("hillshade needs at least a 2x2 grid")
    if not (math.isfinite(azimuth_deg) and math.isfinite(elevation_deg)):
        raise InvalidConfigError(
            f"sun azimuth and elevation must be finite, got {azimuth_deg} and {elevation_deg}"
        )
    ddrow, ddcol = np.gradient(dem.values, dem.cellsize)
    dzdx = ddcol
    dzdy = -ddrow  # row index increases southward
    az = np.deg2rad(azimuth_deg)
    el = np.deg2rad(elevation_deg)
    sun = np.array([np.sin(az) * np.cos(el), np.cos(az) * np.cos(el), np.sin(el)])
    norm = np.sqrt(dzdx**2 + dzdy**2 + 1.0)
    shade = (-dzdx * sun[0] - dzdy * sun[1] + sun[2]) / norm
    return dem.with_values(np.clip(shade, 0.0, 1.0))


def shadow_uncertainty(shade: DemGrid, var_dark: float, var_lit: float) -> DemGrid:
    """Map illumination to noise variance: dark cells get var_dark,
    fully lit cells get the floor var_lit, linear in between."""
    if var_dark < var_lit:
        raise InvalidConfigError(
            f"var_dark ({var_dark}) must be >= var_lit ({var_lit})"
        )
    s = shade.values
    if np.any((s < 0) | (s > 1)):
        raise InvalidInputError("shade values must lie in [0, 1]")
    var = var_lit + (var_dark - var_lit) * (1.0 - s)
    return shade.with_values(var)


def inject_noise(dem: DemGrid, var_grid: DemGrid, seed: int) -> DemGrid:
    """Perturb each cell by an independent N(0, variance) draw."""
    if dem.values.shape != var_grid.values.shape:
        raise InvalidInputError(
            f"shape mismatch: dem {dem.values.shape} vs variance {var_grid.values.shape}"
        )
    if np.any(var_grid.values < 0):
        raise InvalidInputError("noise variances must be nonnegative")
    rng = stream_rng(seed, NOISE_INJECT)
    z = rng.standard_normal(dem.values.shape)
    out = dem.values + np.sqrt(var_grid.values) * z
    mask = ~dem.data_mask()
    if mask.any():
        out[mask] = dem.nodata
    return dem.with_values(out)


def bilinear_sample(dem: DemGrid, points: np.ndarray) -> np.ndarray:
    """Bilinear interpolation over cell centers at (x, y) query points.

    Queries beyond the outer ring of centers clamp to the nearest edge
    value (constant extrapolation).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    # fractional column/row position relative to cell centers
    x0 = dem.xllcorner + 0.5 * dem.cellsize
    y0 = dem.yllcorner + (dem.nrows - 0.5) * dem.cellsize
    fc = (pts[:, 0] - x0) / dem.cellsize
    fr = (y0 - pts[:, 1]) / dem.cellsize
    fc = np.clip(fc, 0.0, dem.ncols - 1.0)
    fr = np.clip(fr, 0.0, dem.nrows - 1.0)
    c0 = np.clip(np.floor(fc).astype(int), 0, dem.ncols - 1)
    r0 = np.clip(np.floor(fr).astype(int), 0, dem.nrows - 1)
    c1 = np.minimum(c0 + 1, dem.ncols - 1)
    r1 = np.minimum(r0 + 1, dem.nrows - 1)
    tc = fc - c0
    tr = fr - r0
    v = dem.values
    top = v[r0, c0] * (1 - tc) + v[r0, c1] * tc
    bot = v[r1, c0] * (1 - tc) + v[r1, c1] * tc
    return top * (1 - tr) + bot * tr


def to_pgm_bytes(dem: DemGrid) -> bytes:
    """Render as an 8-bit binary portable graymap.

    Values scale linearly min-to-max onto 0..255; a constant grid maps
    to mid-gray 128 and nodata cells render as 0.
    """
    mask = dem.data_mask()
    pix = np.zeros(dem.values.shape, dtype=np.uint8)
    if mask.any():
        lo = dem.values[mask].min()
        hi = dem.values[mask].max()
        if hi > lo:
            scaled = np.rint((dem.values - lo) / (hi - lo) * 255.0)
            pix[mask] = np.clip(scaled, 0, 255).astype(np.uint8)[mask]
        else:
            pix[mask] = 128
    header = f"P5\n{dem.ncols} {dem.nrows}\n255\n".encode("ascii")
    return header + pix.tobytes()
