"""Every dense Cholesky factorization goes through `linalg.chol_with_jitter`.

perfbench's tracer counts the calls, flops and jitter retries of the
factorizations by rebinding `chol_with_jitter` in every terragp module.
A path that factored a matrix some other way would drop its calls from
`linalg.chol_with_jitter.calls` in traced runs without any error, so
here every LAPACK and library Cholesky entry point is wrapped as well,
and each of its calls must happen inside a traced `chol_with_jitter`:
on a complete scene and on one with nodata cells, whose grid fits
factor the M x M Schur matrix of the missing cells."""

import importlib
from collections import Counter

import pytest

from terragp import pipeline
from terragp.methods import METHOD_IDS, method_defaults, with_overrides
from terragp.synth import SynthParams

from helpers import with_nodata
from test_benchmark_names import TRACING

# (module, attribute) of each Cholesky a module could call instead
FACTOR_ROUTINES = [
    ("scipy.linalg.lapack", "dpotrf"),
    ("scipy.linalg", "cholesky"),
    ("scipy.linalg", "cho_factor"),
    ("numpy.linalg", "cholesky"),
]


@pytest.mark.parametrize("method_id", METHOD_IDS)
def test_every_dense_factor_is_traced(method_id, monkeypatch):
    scene = pipeline.make_scene(SynthParams(size=16, seed=2), noise_mode="split")
    method = with_overrides(method_defaults(method_id), epochs=2, num_inducing=8, batch_size=16)
    depth = [0]

    def traced(fn):
        # as `tracing.Tracer` wraps a layer: the span opens and closes
        # around the call
        def wrapper(*args, **kwargs):
            calls["chol_with_jitter"] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def factor(fn):
        def wrapper(*args, **kwargs):
            calls["inside" if depth[0] else "outside"] += 1
            return fn(*args, **kwargs)

        return wrapper

    with TRACING.Patcher() as patcher:
        patcher.wrap("terragp.linalg", "chol_with_jitter", traced)
        for module, attr in FACTOR_ROUTINES:
            # rebound in the terragp modules that hold it and at its home
            patcher.wrap(module, attr, factor)
            home = importlib.import_module(module)
            monkeypatch.setattr(home, attr, factor(getattr(home, attr)))
        for nodata in ([], [5, 30, 50]):
            calls = Counter()
            model, stats, _ = pipeline.fit_method(
                method, with_nodata(scene.train, nodata), scene.uncertainty, scene.prior, seed=0
            )
            pipeline.predict_grid(model, stats, scene.truth)
            assert calls["outside"] == 0, nodata
            assert calls["inside"] >= calls["chol_with_jitter"], nodata
            # hayner trains and predicts on its grid's eigenbasis, with no
            # factor on the complete grid
            assert (calls["chol_with_jitter"] == 0) == (method_id == "hayner" and not nodata)
