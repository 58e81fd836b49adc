"""Versioned binary model files.

Layout: a 4-byte magic, one version byte, then length-prefixed sections
(key, type tag, payload).  Arrays are stored as raw little-endian
float64/int64 bytes, so a save/load/save cycle is bitwise identical.
Model caches (Cholesky factors, solve vectors) are not stored; they are
rebuilt deterministically on load.

The schema is one table per component: the kernel, each kind of mean
(zero, constant, grid), the normalization stats, the exact GP and the
SVGP.  A row names one section once: its key, its value type, the
attribute it stores (or a function of the object) and a check that
says what a read value must do.  Writing, the type and finiteness
checks, the value checks and reading all come from the rows.  The kind
of a GP or of a mean is a lookup: by class when writing, by the
`model_kind` or `mean.kind` section when reading.  A GP's sections are
its kind, its kernel's, its mean's and its own; a two-stage model's are
its two GPs' under the `noise.` and `terrain.` prefixes, after
`model_kind` = "two_stage".  Loading reads only the sections that a
row names, so the sections that older files carried beyond these (a
two-stage `variational` flag, an exact GP's `noise_learned`) are
ignored, and saving the loaded model drops them.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Callable
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import exact_gp, kernels, svgp, two_stage
from .datasets import NormStats
from .errors import DataFormatError, InvalidConfigError
from .grids import DemGrid
from .means import ConstantMean, GridInterpMean, ZeroMean

MAGIC = b"TGPM"
VERSION = 1

_T_F64 = 0
_T_I64 = 1
_T_STR = 2
_T_ARR = 3
_T_BOOL = 4
# scalar tag -> (its struct format, the Python types it holds), the bool
# row first because a bool is also an int
_SCALAR_FORMATS = {
    _T_BOOL: ("<B", bool),
    _T_I64: ("<q", (int, np.integer)),
    _T_F64: ("<d", (float, np.floating)),
}


def _encode_value(value) -> tuple[int, bytes]:
    for tag, (fmt, types) in _SCALAR_FORMATS.items():
        if isinstance(value, types):
            return tag, struct.pack(fmt, value)
    if isinstance(value, str):
        return _T_STR, value.encode("utf-8")
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        dtype = arr.dtype.str.encode("ascii")
        head = struct.pack("<B", len(dtype)) + dtype
        head += struct.pack("<B", arr.ndim)
        head += b"".join(struct.pack("<q", d) for d in arr.shape)
        return _T_ARR, head + arr.tobytes()
    raise TypeError(f"cannot serialize {type(value)!r}")


class _Reader:
    """Sequential reads that raise DataFormatError past the end."""

    def __init__(self, raw: bytes):
        self.raw, self.off = raw, 0

    def take(self, n: int, what: str) -> bytes:
        if n > len(self.raw) - self.off:
            raise DataFormatError(f"model file truncated in {what}")
        self.off += n
        return self.raw[self.off - n : self.off]

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]


def _decode_value(tag: int, raw: bytes):
    if tag in _SCALAR_FORMATS:
        value = _Reader(raw).unpack(_SCALAR_FORMATS[tag][0], f"scalar of type tag {tag}")
        return value != 0 if tag == _T_BOOL else value
    if tag == _T_STR:
        return raw.decode("utf-8")
    if tag == _T_ARR:
        r = _Reader(raw)
        dtype = r.take(r.unpack("<B", "array dtype length"), "array dtype")
        if dtype not in (b"<f8", b"<i8"):  # both 8 bytes per item
            raise DataFormatError(f"unsupported array dtype {dtype!r}")
        shape = [r.unpack("<q", "array shape") for _ in range(r.unpack("<B", "array rank"))]
        if min(shape, default=0) < 0 or 8 * math.prod(shape) != len(raw) - r.off:
            raise DataFormatError(f"array shape {shape} does not fit a {len(raw)}-byte section")
        return np.frombuffer(raw[r.off :], dtype=dtype.decode()).reshape(shape).copy()
    raise DataFormatError(f"unknown section type tag {tag}")


def payload_to_bytes(payload: dict) -> bytes:
    out = [MAGIC, struct.pack("<B", VERSION)]
    for key, value in payload.items():
        tag, raw = _encode_value(value)
        kb = key.encode("utf-8")
        out.append(struct.pack("<H", len(kb)))
        out.append(kb)
        out.append(struct.pack("<B", tag))
        out.append(struct.pack("<Q", len(raw)))
        out.append(raw)
    return b"".join(out)


def bytes_to_payload(raw: bytes) -> dict:
    r = _Reader(raw)
    if r.take(4, "magic") != MAGIC:
        raise DataFormatError("not a model file (bad magic)")
    version = r.unpack("<B", "version")
    if version != VERSION:
        raise DataFormatError(f"unsupported model file version {version}")
    payload: dict = {}
    try:
        while r.off < len(raw):
            key = r.take(r.unpack("<H", "key length"), "key").decode("utf-8")
            tag = r.unpack("<B", f"type tag of {key!r}")
            size = r.unpack("<Q", f"length of {key!r}")
            payload[key] = _decode_value(tag, r.take(size, f"value of {key!r}"))
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"model file holds invalid text: {exc}") from None
    return payload


# ---------------------------------------------------------------------------
# The schema: one table of sections per component
# ---------------------------------------------------------------------------

_NUMBER = (int, float)


class _Row(NamedTuple):
    """One section: its key, the type of its value, what it stores and
    a check of the value read back.

    `attr` names the stored attribute, dotted to reach into a member, or
    is a function of the object; by default it is the key's last dotted
    part.  The value is built back as the keyword of the attribute's
    last name, or of the key for a function.  `check(value, before)`,
    with `before` the values of the table read so far by keyword,
    returns what the value must do when it fails it, else None."""

    key: str
    kind: type | tuple
    attr: str | Callable | None = None
    check: Callable | None = None

    def get(self, obj):
        return self.attr(obj) if callable(self.attr) else attrgetter(self.attr or self.arg)(obj)

    @property
    def arg(self) -> str:
        return self.key if callable(self.attr) else (self.attr or self.key).rpartition(".")[2]


class _Table(NamedTuple):
    """A component's sections in file order: its kind (its `model_kind`
    or `mean.kind` value), the class it stores, and `build`, which takes
    each row's value by its `arg`, plus what the reader passes."""

    kind: str
    cls: type
    build: Callable
    rows: tuple = ()


class _Sections(dict):
    """Decoded sections; asking for a missing one is a format error."""

    prefix = ""

    def __missing__(self, key):
        raise DataFormatError(f"model file has no {self.prefix + key!r} section")

    def read(self, row: _Row, before: dict | None = None):
        """The row's value, if it is of the row's type, finite where it is
        numeric and passes the row's check; else a format error naming it."""
        value, name = self[row.key], self.prefix + row.key
        # a bool is an int, so it must be asked for by name
        if isinstance(value, bool) != (row.kind is bool) or not isinstance(value, row.kind):
            raise DataFormatError(f"model file section {name!r} holds a {type(value).__name__}")
        if row.kind not in (str, bool) and not np.all(np.isfinite(value)):
            raise DataFormatError(f"model file section {name!r} must be finite")
        what = row.check and row.check(value, before)
        if what:
            raise DataFormatError(f"model file section {name!r} must {what}")
        return value


def _write(table: _Table, obj) -> dict:
    return {row.key: row.get(obj) for row in table.rows}


def _read(sections: _Sections, table: _Table, **context):
    """The table's object from its sections, read in file order."""
    values: dict = {}
    for row in table.rows:
        values[row.arg] = sections.read(row, values)
    try:
        return table.build(**values, **context)
    except InvalidConfigError as exc:
        # name the component's sections by the prefix their keys share
        group = os.path.commonprefix([row.key for row in table.rows])
        raise DataFormatError(f"model file section {sections.prefix}{group}*: {exc}") from None


def _table_of(obj, tables: dict, what: str) -> _Table:
    """The table of the kind whose class `obj` is."""
    table = {t.cls: t for t in tables.values()}.get(type(obj))
    if table is None:
        raise TypeError(f"cannot serialize {what} {type(obj)!r}")
    return table


def _must(what: str, ok: Callable) -> Callable:
    """The check that fails with `what` where `ok(value)` is false."""
    return lambda value, before: None if ok(value) else what


def _positive(value) -> bool:
    return bool(np.all(np.isfinite(value) & (np.asarray(value) > 0)))


def _pair(value: np.ndarray) -> bool:
    return value.shape == (2,)


_TWO_COLUMNS = _must(
    "have 2 columns and a row", lambda v: v.ndim == 2 and v.shape[0] > 0 and v.shape[1] == 2
)


def _one_per_inducing_point(mvec: np.ndarray, before: dict) -> str | None:
    m = len(before["Z"])
    return None if mvec.shape == (m,) else f"have shape ({m},)"


def _lower_factor(L: np.ndarray, before: dict) -> str | None:
    """(m, m), lower triangular, with a positive diagonal."""
    m = len(before["Z"])
    if L.shape == (m, m) and not np.triu(L, 1).any() and np.all(np.diag(L) > 0):
        return None
    return f"be an ({m}, {m}) lower-triangular factor with a positive diagonal"


def _one_per_row(Y: np.ndarray, before: dict) -> str | None:
    return None if Y.shape == before["X"].shape[:1] else "hold one value per train_x row"


_METHOD_ID, _MODEL_KIND, _MEAN_KIND = (
    _Row(key, str) for key in ("method_id", "model_kind", "mean.kind")
)
_TWO_STAGE = "two_stage"
_NOISE, _TERRAIN = "noise.", "terrain."

_KERNEL = _Table("", kernels.KernelConfig, kernels.KernelConfig, (
    _Row("kernel.family", str),
    *(
        _Row("kernel." + name, _NUMBER)
        for name in ("log_lengthscale", "log_outputscale", "log_alpha", "nu")
    ),
))

_STATS = _Table("", NormStats, NormStats, (
    _Row("stats.x_mean", np.ndarray, check=_must("hold 2 numbers", _pair)),
    _Row("stats.x_std", np.ndarray, check=_must(
        "hold 2 numbers, finite and > 0", lambda v: _pair(v) and _positive(v)
    )),
    _Row("stats.y_mean", _NUMBER),
    _Row("stats.y_std", _NUMBER, check=_must("be finite and > 0", _positive)),
))


def _grid_mean(stats: NormStats, values: np.ndarray, **corners) -> GridInterpMean:
    return GridInterpMean(DemGrid(values=values, **corners), stats)


# mean kind -> table; the grid mean is built in the stats of its GP
_MEANS = {t.kind: t for t in (
    _Table("zero", ZeroMean, lambda stats: ZeroMean()),
    _Table("constant", ConstantMean, lambda stats, **fields: ConstantMean(**fields), (
        _Row("mean.constant", _NUMBER),
        _Row("mean.learnable", bool),
    )),
    _Table("grid", GridInterpMean, _grid_mean, (
        _Row("mean.grid_values", np.ndarray, "grid.values",
             _must("be a 2-D array", lambda v: v.ndim == 2)),
        _Row("mean.grid_xll", _NUMBER, "grid.xllcorner"),
        _Row("mean.grid_yll", _NUMBER, "grid.yllcorner"),
        _Row("mean.grid_cellsize", _NUMBER, "grid.cellsize"),
        _Row("mean.grid_nodata", _NUMBER, "grid.nodata"),
    )),
)}


def _svgp_state(has_noise: bool, log_noise_var: float, **fields) -> svgp.SvgpState:
    return svgp.SvgpState(log_noise_var=log_noise_var if has_noise else None, **fields)


# model kind -> table; each GP's sections follow its kernel's and its mean's
_GPS = {t.kind: t for t in (
    _Table("exact", exact_gp.ExactGpModel, exact_gp.build_model, (
        _Row("noise_var", np.ndarray),
        _Row("homoscedastic", bool),
        _Row("train_x", np.ndarray, "X", _TWO_COLUMNS),
        _Row("train_y", np.ndarray, "Y", _one_per_row),
    )),
    _Table("svgp", svgp.SvgpState, _svgp_state, (
        _Row("inducing", np.ndarray, "Z", _TWO_COLUMNS),
        _Row("whitened_mean", np.ndarray, "mvec", _one_per_inducing_point),
        _Row("whitened_chol", np.ndarray, "L", _lower_factor),
        # an external noise field is stored as no noise of its own
        _Row("has_noise", bool, lambda gp: gp.log_noise_var is not None),
        _Row("log_noise_var", _NUMBER,
             lambda gp: 0.0 if gp.log_noise_var is None else gp.log_noise_var),
    )),
)}


def _gp_payload(gp) -> dict:
    table = _table_of(gp, _GPS, "model")
    mean = _table_of(gp.mean_fn, _MEANS, "mean function")
    return {
        _MODEL_KIND.key: table.kind,
        **_write(_KERNEL, gp.kernel),
        _MEAN_KIND.key: mean.kind,
        **_write(mean, gp.mean_fn),
        **_write(table, gp),
    }


def _gp_from(sections: _Sections, stats: NormStats):
    kind = sections.read(_MODEL_KIND)
    if kind not in _GPS:
        raise DataFormatError(f"unknown model kind {sections.prefix}{_MODEL_KIND.key} = {kind!r}")
    kernel = _read(sections, _KERNEL)
    mean_kind = sections.read(_MEAN_KIND)
    if mean_kind not in _MEANS:
        raise DataFormatError(f"unknown mean kind {mean_kind!r}")
    mean_fn = _read(sections, _MEANS[mean_kind], stats=stats)
    return _read(sections, _GPS[kind], kernel=kernel, mean_fn=mean_fn)


def _prefixed(payload: dict, prefix: str) -> dict:
    return {prefix + k: v for k, v in payload.items()}


def _unprefixed(payload: dict, prefix: str) -> _Sections:
    sub = _Sections((k[len(prefix):], v) for k, v in payload.items() if k.startswith(prefix))
    sub.prefix = prefix
    return sub


def model_payload(method_id: str, model, stats: NormStats) -> dict:
    payload: dict = {_METHOD_ID.key: method_id}
    if isinstance(model, two_stage.TwoStageModel):
        payload[_MODEL_KIND.key] = _TWO_STAGE
        payload.update(_prefixed(_gp_payload(model.noise.gp), _NOISE))
        payload.update(_prefixed(_gp_payload(model.terrain), _TERRAIN))
    else:
        payload.update(_gp_payload(model))
    payload.update(_write(_STATS, stats))
    return payload


def model_from_payload(payload: dict):
    """(method_id, model, stats); any missing or inconsistent section
    raises DataFormatError."""
    sections = _Sections(payload)
    stats = _read(sections, _STATS)
    method_id = sections.read(_METHOD_ID)
    if sections.read(_MODEL_KIND) != _TWO_STAGE:
        return method_id, _gp_from(sections, stats), stats
    identity = NormStats(np.zeros(2), np.ones(2), 0.0, 1.0)
    model = two_stage.TwoStageModel(
        noise=two_stage.NoiseModel(gp=_gp_from(_unprefixed(sections, _NOISE), identity)),
        terrain=_gp_from(_unprefixed(sections, _TERRAIN), stats),
    )
    return method_id, model, stats


def save_model(path, method_id: str, model, stats: NormStats) -> None:
    raw = payload_to_bytes(model_payload(method_id, model, stats))
    with open(path, "wb") as fh:
        fh.write(raw)


def load_model(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    return model_from_payload(bytes_to_payload(raw))
