"""Versioned binary model files.

Layout: a 4-byte magic, one version byte, then length-prefixed sections
(key, type tag, payload).  Arrays are stored as raw little-endian
float64/int64 bytes, so a save/load/save cycle is bitwise identical.
Model caches (Cholesky factors, solve vectors) are not stored; they are
rebuilt deterministically on load.
"""

from __future__ import annotations

import struct

import numpy as np

from . import exact_gp, kernels, svgp, two_stage
from .datasets import NormStats
from .errors import DataFormatError
from .grids import DemGrid
from .means import ConstantMean, GridInterpMean, ZeroMean

MAGIC = b"TGPM"
VERSION = 1

_T_F64 = 0
_T_I64 = 1
_T_STR = 2
_T_ARR = 3
_T_BOOL = 4


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


def _decode_value(tag: int, raw: bytes):
    if tag == _T_BOOL:
        return raw[0] != 0
    if tag == _T_I64:
        return struct.unpack("<q", raw)[0]
    if tag == _T_F64:
        return struct.unpack("<d", raw)[0]
    if tag == _T_STR:
        return raw.decode("utf-8")
    if tag == _T_ARR:
        dlen = raw[0]
        dtype = raw[1 : 1 + dlen].decode("ascii")
        off = 1 + dlen
        ndim = raw[off]
        off += 1
        shape = []
        for _ in range(ndim):
            shape.append(struct.unpack_from("<q", raw, off)[0])
            off += 8
        return np.frombuffer(raw[off:], dtype=dtype).reshape(shape).copy()
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
    if raw[:4] != MAGIC:
        raise DataFormatError("not a model file (bad magic)")
    if raw[4] != VERSION:
        raise DataFormatError(f"unsupported model file version {raw[4]}")
    payload = {}
    off = 5
    while off < len(raw):
        (klen,) = struct.unpack_from("<H", raw, off)
        off += 2
        key = raw[off : off + klen].decode("utf-8")
        off += klen
        tag = raw[off]
        off += 1
        (plen,) = struct.unpack_from("<Q", raw, off)
        off += 8
        payload[key] = _decode_value(tag, raw[off : off + plen])
        off += plen
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
    return kernels.KernelConfig(
        family=payload["kernel.family"],
        log_lengthscale=payload["kernel.log_lengthscale"],
        log_outputscale=payload["kernel.log_outputscale"],
        log_alpha=payload["kernel.log_alpha"],
        nu=payload["kernel.nu"],
    )


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
    values = payload["mean.grid_values"]
    grid = DemGrid(
        ncols=values.shape[1],
        nrows=values.shape[0],
        xllcorner=payload["mean.grid_xll"],
        yllcorner=payload["mean.grid_yll"],
        cellsize=payload["mean.grid_cellsize"],
        nodata=payload["mean.grid_nodata"],
        values=values,
    )
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
        x_mean=payload["stats.x_mean"],
        x_std=payload["stats.x_std"],
        y_mean=payload["stats.y_mean"],
        y_std=payload["stats.y_std"],
    )


def _exact_payload(model: exact_gp.ExactGpModel) -> dict:
    out = {"model_kind": "exact"}
    out.update(_kernel_payload(model.kernel))
    out.update(_mean_payload(model.mean_fn))
    out.update(
        {
            "noise_var": model.noise_var,
            "homoscedastic": model.homoscedastic,
            "noise_learned": model.noise_learned,
            "train_x": model.X,
            "train_y": model.Y,
        }
    )
    return out


def _exact_from(payload: dict, stats: NormStats) -> exact_gp.ExactGpModel:
    return exact_gp.build_model(
        payload["train_x"],
        payload["train_y"],
        _mean_from(payload, stats),
        _kernel_from(payload),
        payload["noise_var"],
        homoscedastic=payload["homoscedastic"],
        noise_learned=payload["noise_learned"],
    )


def _svgp_payload(state: svgp.SvgpState) -> dict:
    out = {"model_kind": "svgp"}
    out.update(_kernel_payload(state.kernel))
    out.update(_mean_payload(state.mean_fn))
    out.update(
        {
            "inducing": state.Z,
            "variational_mean": state.mvec,
            "variational_chol": state.L,
            "has_noise": state.log_noise_var is not None,
            "log_noise_var": (
                state.log_noise_var if state.log_noise_var is not None else 0.0
            ),
        }
    )
    return out


def _svgp_from(payload: dict, stats: NormStats) -> svgp.SvgpState:
    return svgp.SvgpState(
        Z=payload["inducing"],
        mvec=payload["variational_mean"],
        L=payload["variational_chol"],
        kernel=_kernel_from(payload),
        mean_fn=_mean_from(payload, stats),
        log_noise_var=payload["log_noise_var"] if payload["has_noise"] else None,
    )


def _prefixed(payload: dict, prefix: str) -> dict:
    return {prefix + k: v for k, v in payload.items()}


def _unprefixed(payload: dict, prefix: str) -> dict:
    return {k[len(prefix):]: v for k, v in payload.items() if k.startswith(prefix)}


def model_payload(method_id: str, model, stats: NormStats) -> dict:
    payload: dict = {"method_id": method_id}
    if isinstance(model, two_stage.TwoStageModel):
        payload["model_kind"] = "two_stage"
        payload["variational"] = model.variational
        gp = model.noise.gp
        sub = _svgp_payload(gp) if isinstance(gp, svgp.SvgpState) else _exact_payload(gp)
        payload.update(_prefixed(sub, "noise."))
        terr = model.terrain
        sub = (
            _svgp_payload(terr)
            if isinstance(terr, svgp.SvgpState)
            else _exact_payload(terr)
        )
        payload.update(_prefixed(sub, "terrain."))
    elif isinstance(model, svgp.SvgpState):
        payload.update(_svgp_payload(model))
    elif isinstance(model, exact_gp.ExactGpModel):
        payload.update(_exact_payload(model))
    else:
        raise TypeError(f"cannot serialize model {type(model)!r}")
    payload.update(_stats_payload(stats))
    return payload


def model_from_payload(payload: dict):
    stats = _stats_from(payload)
    method_id = payload["method_id"]
    kind = payload.get("model_kind")
    if kind == "two_stage":
        identity = NormStats(np.zeros(2), np.ones(2), 0.0, 1.0)
        noise_sub = _unprefixed(payload, "noise.")
        noise_gp = (
            _svgp_from(noise_sub, identity)
            if noise_sub["model_kind"] == "svgp"
            else _exact_from(noise_sub, identity)
        )
        terrain_sub = _unprefixed(payload, "terrain.")
        terrain = (
            _svgp_from(terrain_sub, stats)
            if terrain_sub["model_kind"] == "svgp"
            else _exact_from(terrain_sub, stats)
        )
        model = two_stage.TwoStageModel(
            noise=two_stage.NoiseModel(gp=noise_gp),
            terrain=terrain,
            variational=payload["variational"],
            stats=stats,
        )
    elif kind == "svgp":
        model = _svgp_from(payload, stats)
    elif kind == "exact":
        model = _exact_from(payload, stats)
    else:
        raise DataFormatError(f"unknown model kind {kind!r}")
    return method_id, model, stats


def save_model(path, method_id: str, model, stats: NormStats) -> None:
    raw = payload_to_bytes(model_payload(method_id, model, stats))
    with open(path, "wb") as fh:
        fh.write(raw)


def load_model(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    return model_from_payload(bytes_to_payload(raw))
