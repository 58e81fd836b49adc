"""Versioned binary model files.

Layout: a 4-byte magic, one version byte, then length-prefixed sections
(key, type tag, payload).  Arrays are stored as raw little-endian
float64/int64 bytes, so a save/load/save cycle is bitwise identical.
Model caches (Cholesky factors, solve vectors) are not stored; they are
rebuilt deterministically on load.
"""

from __future__ import annotations

import math
import struct

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
_SCALAR_FORMATS = {_T_BOOL: "<B", _T_I64: "<q", _T_F64: "<d"}


def _encode_value(value) -> tuple[int, bytes]:
    if isinstance(value, bool):
        return _T_BOOL, struct.pack("<B", 1 if value else 0)
    if isinstance(value, (int, np.integer)):
        return _T_I64, struct.pack("<q", int(value))
    if isinstance(value, (float, np.floating)):
        return _T_F64, struct.pack("<d", float(value))
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
        value = _Reader(raw).unpack(_SCALAR_FORMATS[tag], f"scalar of type tag {tag}")
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


# section value types by key without its noise./terrain. prefix; others are numbers
_SECTION_TYPES = {
    **dict.fromkeys("method_id model_kind kernel.family mean.kind".split(), str),
    **dict.fromkeys("variational mean.learnable has_noise homoscedastic".split(), bool),
    **dict.fromkeys(
        "mean.grid_values stats.x_mean stats.x_std inducing whitened_mean "
        "whitened_chol noise_var train_x train_y".split(),
        np.ndarray,
    ),
}


class _Sections(dict):
    """Decoded sections; asking for a missing one, one holding the wrong
    type of value or a numeric one that is not finite is a format error."""

    prefix = ""

    def __missing__(self, key):
        raise DataFormatError(f"model file has no {self.prefix + key!r} section")

    def __getitem__(self, key):
        value = super().__getitem__(key)
        want = _SECTION_TYPES.get(key, (int, float))
        # a bool is an int, so it must be asked for by name
        if isinstance(value, bool) != (want is bool) or not isinstance(value, want):
            raise DataFormatError(
                f"model file section {self.prefix + key!r} holds a {type(value).__name__}"
            )
        if want not in (str, bool) and not np.all(np.isfinite(value)):
            raise DataFormatError(f"model file section {self.prefix + key!r} must be finite")
        return value

    def valid(self, key, ok, what: str):
        """The section's value, if `ok(value)`; else a format error naming it."""
        value = self[key]
        if not ok(value):
            raise DataFormatError(f"model file section {self.prefix + key!r} must {what}")
        return value


def _positive(value) -> bool:
    return bool(np.all(np.isfinite(value) & (np.asarray(value) > 0)))


def _pair(value: np.ndarray) -> bool:
    return value.shape == (2,)


def _two_columns(value: np.ndarray) -> bool:
    return value.ndim == 2 and value.shape[0] > 0 and value.shape[1] == 2


def _lower_factor(value: np.ndarray, m: int) -> bool:
    """(m, m), lower triangular, with a positive diagonal."""
    return value.shape == (m, m) and not np.triu(value, 1).any() and bool(np.all(np.diag(value) > 0))


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
# Component payloads
# ---------------------------------------------------------------------------


def _kernel_payload(cfg: kernels.KernelConfig) -> dict:
    return {
        "kernel.family": cfg.family,
        "kernel.log_lengthscale": cfg.log_lengthscale,
        "kernel.log_outputscale": cfg.log_outputscale,
        "kernel.log_alpha": cfg.log_alpha,
        "kernel.nu": cfg.nu,
    }


def _kernel_from(payload: dict) -> kernels.KernelConfig:
    try:
        return kernels.KernelConfig(
            family=payload["kernel.family"],
            log_lengthscale=payload["kernel.log_lengthscale"],
            log_outputscale=payload["kernel.log_outputscale"],
            log_alpha=payload["kernel.log_alpha"],
            nu=payload["kernel.nu"],
        )
    except InvalidConfigError as exc:
        raise DataFormatError(f"model file section {payload.prefix}kernel.*: {exc}") from None


def _mean_payload(mean_fn) -> dict:
    if isinstance(mean_fn, ZeroMean):
        return {"mean.kind": "zero"}
    if isinstance(mean_fn, ConstantMean):
        return {
            "mean.kind": "constant",
            "mean.constant": mean_fn.constant,
            "mean.learnable": mean_fn.learnable,
        }
    if isinstance(mean_fn, GridInterpMean):
        g = mean_fn.grid
        return {
            "mean.kind": "grid",
            "mean.grid_values": g.values,
            "mean.grid_xll": g.xllcorner,
            "mean.grid_yll": g.yllcorner,
            "mean.grid_cellsize": g.cellsize,
            "mean.grid_nodata": g.nodata,
        }
    raise TypeError(f"cannot serialize mean function {type(mean_fn)!r}")


def _mean_from(payload: dict, stats: NormStats):
    kind = payload["mean.kind"]
    if kind == "zero":
        return ZeroMean()
    if kind == "constant":
        return ConstantMean(payload["mean.constant"], payload["mean.learnable"])
    if kind != "grid":
        raise DataFormatError(f"unknown mean kind {kind!r}")
    values = payload.valid("mean.grid_values", lambda v: v.ndim == 2, "be a 2-D array")
    try:
        grid = DemGrid(
            ncols=values.shape[1],
            nrows=values.shape[0],
            xllcorner=payload["mean.grid_xll"],
            yllcorner=payload["mean.grid_yll"],
            cellsize=payload["mean.grid_cellsize"],
            nodata=payload["mean.grid_nodata"],
            values=values,
        )
    except InvalidConfigError as exc:
        raise DataFormatError(f"model file section {payload.prefix}mean.grid_*: {exc}") from None
    return GridInterpMean(grid, stats)


def _stats_payload(stats: NormStats) -> dict:
    return {
        "stats.x_mean": stats.x_mean,
        "stats.x_std": stats.x_std,
        "stats.y_mean": stats.y_mean,
        "stats.y_std": stats.y_std,
    }


def _stats_from(payload: dict) -> NormStats:
    return NormStats(
        x_mean=payload.valid("stats.x_mean", _pair, "hold 2 numbers"),
        x_std=payload.valid(
            "stats.x_std", lambda v: _pair(v) and _positive(v), "hold 2 numbers, finite and > 0"
        ),
        y_mean=payload["stats.y_mean"],
        y_std=payload.valid("stats.y_std", _positive, "be finite and > 0"),
    )


def _gp_payload(gp) -> dict:
    if isinstance(gp, svgp.SvgpState):
        kind, fields = "svgp", {
            "inducing": gp.Z,
            "whitened_mean": gp.mvec,
            "whitened_chol": gp.L,
            "has_noise": gp.log_noise_var is not None,
            "log_noise_var": gp.log_noise_var if gp.log_noise_var is not None else 0.0,
        }
    elif isinstance(gp, exact_gp.ExactGpModel):
        kind, fields = "exact", {
            "noise_var": gp.noise_var,
            "homoscedastic": gp.homoscedastic,
            "train_x": gp.X,
            "train_y": gp.Y,
        }
    else:
        raise TypeError(f"cannot serialize model {type(gp)!r}")
    head = {"model_kind": kind, **_kernel_payload(gp.kernel), **_mean_payload(gp.mean_fn)}
    return {**head, **fields}


def _gp_from(payload: dict, stats: NormStats):
    kind = payload["model_kind"]
    if kind == "svgp":
        Z = payload.valid("inducing", _two_columns, "have 2 columns and a row")
        m = Z.shape[0]
        return svgp.SvgpState(
            Z=Z,
            mvec=payload.valid("whitened_mean", lambda v: v.shape == (m,), f"have shape ({m},)"),
            L=payload.valid(
                "whitened_chol", lambda c: _lower_factor(c, m),
                f"be an ({m}, {m}) lower-triangular factor with a positive diagonal",
            ),
            kernel=_kernel_from(payload),
            mean_fn=_mean_from(payload, stats),
            log_noise_var=payload["log_noise_var"] if payload["has_noise"] else None,
        )
    if kind == "exact":
        X = payload.valid("train_x", _two_columns, "have 2 columns and a row")
        Y = payload.valid(
            "train_y", lambda y: y.shape == X.shape[:1], "hold one value per train_x row"
        )
        return exact_gp.build_model(
            X,
            Y,
            _mean_from(payload, stats),
            _kernel_from(payload),
            payload["noise_var"],
            homoscedastic=payload["homoscedastic"],
        )
    raise DataFormatError(f"unknown model kind {payload.prefix}model_kind = {kind!r}")


def _prefixed(payload: dict, prefix: str) -> dict:
    return {prefix + k: v for k, v in payload.items()}


def _unprefixed(payload: dict, prefix: str) -> _Sections:
    sub = _Sections((k[len(prefix):], v) for k, v in payload.items() if k.startswith(prefix))
    sub.prefix = prefix
    return sub


def model_payload(method_id: str, model, stats: NormStats) -> dict:
    payload: dict = {"method_id": method_id}
    if isinstance(model, two_stage.TwoStageModel):
        payload["model_kind"] = "two_stage"
        payload["variational"] = model.variational
        payload.update(_prefixed(_gp_payload(model.noise.gp), "noise."))
        payload.update(_prefixed(_gp_payload(model.terrain), "terrain."))
    else:
        payload.update(_gp_payload(model))
    payload.update(_stats_payload(stats))
    return payload


def model_from_payload(payload: dict):
    """(method_id, model, stats); any missing or inconsistent section
    raises DataFormatError."""
    payload = _Sections(payload)
    stats = _stats_from(payload)
    method_id = payload["method_id"]
    if payload["model_kind"] != "two_stage":
        return method_id, _gp_from(payload, stats), stats
    identity = NormStats(np.zeros(2), np.ones(2), 0.0, 1.0)
    model = two_stage.TwoStageModel(
        noise=two_stage.NoiseModel(gp=_gp_from(_unprefixed(payload, "noise."), identity)),
        terrain=_gp_from(_unprefixed(payload, "terrain."), stats),
    )
    if payload["variational"] != model.variational:
        raise DataFormatError(f"variational = {payload['variational']} disagrees with the terrain")
    return method_id, model, stats


def save_model(path, method_id: str, model, stats: NormStats) -> None:
    raw = payload_to_bytes(model_payload(method_id, model, stats))
    with open(path, "wb") as fh:
        fh.write(raw)


def load_model(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    return model_from_payload(bytes_to_payload(raw))
