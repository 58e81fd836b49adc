"""Timing wrappers installed on terragp's module attributes.

The benchmark measures the package from outside: it never edits it.
A layer is a function (or method) of one terragp module.  Installing a
wrapper replaces that function object in *every* loaded terragp module
that holds it, because several modules import helpers by name
(`exact_gp` and `svgp` hold their own references to `chol_with_jitter`
and `chol_solve`; `cli` holds `read_asc` and `write_asc`).

Each wrapped call records a span: layer, start, end and the index of
the enclosing span.  Self time is a span's duration minus the durations
of its direct children.  Work counts (entries, computed flops, points,
bytes) are derived from argument and result sizes at the same
boundary.  Spans are kept in memory and aggregated when the run ends.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# Every benchmark time is CPU time of the workload process (all its
# threads, user plus system).  With BLAS pinned to one thread it equals
# wall time on an idle machine, but it leaves out the time the process
# waits for a shared CPU.  On a shared 2-core VM that halved the
# seed-to-seed spread of table1's run_s (IQR/median 0.04 against 0.08
# by wall clock, five seeds run alternately with each clock); slowdowns
# from other tenants on the same cores still show in it.  It also leaves
# out I/O waits, which the page cache keeps near zero for these files.
CLOCK = time.process_time


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return int(shape[0]) if len(shape) else 1


def _cols(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[1]) if len(shape) > 1 else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


@dataclass(frozen=True)
class Counts:
    """Work counts of one layer call, from its arguments and result."""

    keys: tuple[str, ...]
    fn: Callable


def _gram_entries(args, kwargs, out):
    a, b = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")
    return {"entries": _rows(a) * _rows(b)}


def _chol_counts(args, kwargs, out):
    # retries are inferred from the returned jitter: 0 means the first
    # attempt worked, otherwise the ladder 1e-8, 1e-7, ... was climbed
    n = _rows(_arg(args, kwargs, 0, "mat"))
    jitter = float(out[1])
    retries = 0 if jitter == 0.0 else int(round(math.log10(jitter / 1e-8))) + 1
    return {"flops_computed": (retries + 1) * n**3 // 3, "retries": retries}


def _solve_flops(per_entry: int) -> Counts:
    def counts(args, kwargs, out):
        n = _rows(_arg(args, kwargs, 0, "L"))
        k = _cols(_arg(args, kwargs, 1, "b"))
        return {"flops_computed": per_entry * n * n * k}

    return Counts(("flops_computed",), counts)


def _points(index: int, name: str) -> Counts:
    def counts(args, kwargs, out):
        return {"points": _rows(_arg(args, kwargs, index, name))}

    return Counts(("points",), counts)


def _file_bytes(index: int, name: str) -> Counts:
    def counts(args, kwargs, out):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}

    return Counts(("bytes",), counts)


_ENTRIES = Counts(("entries",), _gram_entries)
_CHOL = Counts(("flops_computed", "retries"), _chol_counts)
_PRED = _points(1, "Xstar")


@dataclass(frozen=True)
class Layer:
    """One traced function and the end-to-end metrics it should move."""

    name: str
    module: str
    attr: str  # "func" or "Class.method"
    counts: Counts | None
    moves: str
    timed_everywhere: bool = True  # False: its times are report-only

    @property
    def count_keys(self) -> tuple[str, ...]:
        return self.counts.keys if self.counts else ()


_TRAIN = "fit_s on table1 and sweep-1536; setup_s and fit_s on map-predict"
_PREDICT = "predict_s on map-predict and sweep-1536; about 0 on table1"
_SVGP = "fit_s on sweep-1536 (m1024 row) and table1; no change on map-predict run_s"
_EXACT = "fit_s on table1; run_s on sweep-1536; no change on map-predict run_s"
_IO = "run_s on map-predict (under 3%)"

LAYERS = (
    Layer("kernels.gram", "terragp.kernels", "gram", _ENTRIES,
          "fit_s on table1 and sweep-1536; predict_s on map-predict"),
    Layer("kernels.gram_gradients", "terragp.kernels", "gram_gradients", _ENTRIES, _TRAIN),
    Layer("kernels.gram_dr2", "terragp.kernels", "gram_dr2", _ENTRIES, _TRAIN),
    Layer("linalg.chol_with_jitter", "terragp.linalg", "chol_with_jitter", _CHOL,
          "fit_s on table1; run_s and peak_rss_mb on sweep-1536"),
    Layer("linalg.chol_solve", "terragp.linalg", "chol_solve", _solve_flops(2),
          "fit_s on table1; run_s and peak_rss_mb on sweep-1536"),
    Layer("linalg.tri_solve", "terragp.linalg", "tri_solve", _solve_flops(1),
          "fit_s on table1; run_s on sweep-1536; predict_s on map-predict"),
    Layer("exact_gp.lml_gradients", "terragp.exact_gp", "lml_gradients", None, _EXACT),
    Layer("two_stage.fit_noise_gp", "terragp.two_stage", "fit_noise_gp", None, _EXACT),
    Layer("svgp.elbo_step", "terragp.svgp", "_elbo_whitened", None, _SVGP),
    Layer("svgp.chol_backward", "terragp.svgp", "_chol_backward", None, _SVGP),
    Layer("svgp.init_q", "terragp.svgp", "_optimal_whitened_q", None, _SVGP),
    Layer("optim.adam_step", "terragp.optim", "adam_step", None, _SVGP),
    Layer("exact_gp.predict_exact", "terragp.exact_gp", "predict_exact", _PRED, _PREDICT),
    Layer("svgp.predictive_qf", "terragp.svgp", "predictive_qf", _PRED, _PREDICT),
    Layer("two_stage.noise_field", "terragp.two_stage", "NoiseModel.noise_variances",
          _points(1, "Xn"), _PREDICT),
    Layer("metrics.evaluate", "terragp.metrics", "evaluate", _points(0, "pred_mean"), _IO),
    Layer("pipeline.make_scene", "terragp.pipeline", "make_scene", None,
          "setup_s on table1 and map-predict; run_s on sweep-1536"),
    Layer("grids.read_asc", "terragp.grids", "read_asc", _file_bytes(0, "path"), _IO,
          timed_everywhere=False),
    Layer("grids.write_asc", "terragp.grids", "write_asc", _file_bytes(1, "path"), _IO,
          timed_everywhere=False),
    Layer("modelio.save_model", "terragp.modelio", "save_model", _file_bytes(0, "path"),
          "setup_s on map-predict", timed_everywhere=False),
    Layer("modelio.load_model", "terragp.modelio", "load_model", _file_bytes(0, "path"), _IO,
          timed_everywhere=False),
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit.

    Layers whose times are report-only are exercised by map-predict
    alone; elsewhere their times would read 0 on every run, so only
    their counts are reported.
    """
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        if layer.timed_everywhere:
            units[f"{layer.name}.s"] = "s"
            units[f"{layer.name}.self_s"] = "s"
        for key in layer.count_keys:
            units[f"{layer.name}.{key}"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Patcher:
    """Swaps a function object for a wrapper in every terragp module
    (or on its class, for methods) and puts the originals back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module: str, attr: str, make_wrapper) -> None:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._set(cls, meth, make_wrapper(original))
            return
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "terragp" or name.startswith("terragp.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def set(self, module: str, attr: str, value) -> None:
        """Rebind one module attribute (a constant, not a function)."""
        self._set(sys.modules[module], attr, value)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans from the wrappers it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def install(self, patcher: Patcher) -> None:
        for layer in LAYERS:
            patcher.wrap(layer.module, layer.attr, functools.partial(self._wrapper, layer))

    def _wrapper(self, layer: Layer, fn):
        spans, stack, clock = self.spans, self._stack, CLOCK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer.name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if layer.counts is not None:
                span.counts = layer.counts.fn(args, kwargs, out)
            return out

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds, self seconds, counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out = {
            layer.name: {"calls": 0, "s": 0.0, "self_s": 0.0,
                         **{k: 0 for k in layer.count_keys}}
            for layer in LAYERS
        }
        for span, children in zip(self.spans, child_time):
            agg = out[span.layer]
            duration = span.end - span.start
            agg["calls"] += 1
            agg["s"] += duration
            agg["self_s"] += duration - children
            for key, value in span.counts.items():
                agg[key] += value
        return out
