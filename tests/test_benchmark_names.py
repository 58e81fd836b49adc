"""The benchmark in perfbench/ reaches into terragp by name: its tracer
wraps the functions listed in `tracing.LAYERS`, and its workloads patch
and call module attributes.  A rename that breaks one of those names
fails here instead of in a benchmark run."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from terragp import pipeline
from terragp.methods import NOISE_GP, MethodConfig, method_defaults, with_overrides
from terragp.synth import SynthParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolve(module: str, attr: str):
    """The object `Patcher.wrap` would replace: a module attribute, or a
    method defined on the class itself for "Class.method"."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name))[meth]
    return getattr(owner, attr)


def _patch_calls(tree: ast.AST):
    """(method, module, attr) of every `<patcher>.wrap/set("terragp...", "attr", ...)`."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        args = node.args[:2]
        if node.func.attr in ("wrap", "set") and len(args) == 2 and all(
            isinstance(a, ast.Constant) and isinstance(a.value, str) for a in args
        ):
            module, attr = (a.value for a in args)
            if module.startswith("terragp"):
                yield node.func.attr, module, attr


def _terragp_references(tree: ast.AST):
    """(module, attr) of every `mod.attr` where `mod` came from `from terragp import`."""
    modules = {
        alias.asname or alias.name: f"terragp.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "terragp"
        for alias in node.names
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            yield modules[node.value.id], node.attr


def _parse(name: str) -> ast.AST:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


TRACING = _load_tracing()
LAYERS = TRACING.LAYERS
PATCHES = sorted(
    {call for name in ("workloads.py", "selftest.py") for call in _patch_calls(_parse(name))}
)


def test_scan_finds_the_patches():
    # guards the AST scan itself: these are patched today
    assert ("set", "terragp.two_stage", "NOISE_GP") in PATCHES
    assert ("wrap", "terragp.two_stage", "fit_terrain") in PATCHES


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.name)
def test_traced_layer_is_callable(layer):
    assert callable(_resolve(layer.module, layer.attr))


@pytest.mark.parametrize("how, module, attr", PATCHES, ids=str)
def test_patched_attribute_exists(how, module, attr):
    target = _resolve(module, attr)
    if how == "set":
        # the benchmark rebinds it with dataclasses.replace(..., epochs=...)
        assert isinstance(target, MethodConfig)
    else:
        assert callable(target)


def test_workload_references_resolve():
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(set(_terragp_references(_parse("workloads.py"))))
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def _counted(calls: Counter, name: str):
    """A `Patcher.wrap` wrapper factory that counts calls under `name`."""

    def make_wrapper(fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make_wrapper


def _small_fit(method_id: str, scene):
    method = with_overrides(
        method_defaults(method_id), epochs=2, num_inducing=8, batch_size=16
    )
    return pipeline.fit_method(method, scene.train, scene.uncertainty, scene.prior, seed=0)


@pytest.mark.parametrize(
    "method_id, expected",
    [
        ("hayner", {"lml_gradients": 2, "adam_step": 2}),
        # 64 training points in batches of 16: 4 steps per epoch
        ("torroba", {"elbo_step": 8, "adam_step": 8}),
        # the stage-1 exact noise GP runs NOISE_GP's epochs first
        (
            "ours-variational",
            {
                "fit_noise_gp": 1,
                "lml_gradients": NOISE_GP.epochs,
                "elbo_step": 8,
                "adam_step": NOISE_GP.epochs + 8,
            },
        ),
    ],
)
def test_training_reaches_the_traced_layers(method_id, expected):
    """The trainers must call the traced training layers by module-global
    name; a loop that captured one as a function object at import time
    would bypass the tracer and zero these per-layer counts."""
    scene = pipeline.make_scene(SynthParams(size=16, seed=2), noise_mode="split")
    calls = Counter()
    with TRACING.Patcher() as patcher:
        patcher.wrap("terragp.exact_gp", "lml_gradients", _counted(calls, "lml_gradients"))
        patcher.wrap("terragp.svgp", "_elbo_whitened", _counted(calls, "elbo_step"))
        patcher.wrap("terragp.optim", "adam_step", _counted(calls, "adam_step"))
        patcher.wrap("terragp.two_stage", "fit_noise_gp", _counted(calls, "fit_noise_gp"))
        _small_fit(method_id, scene)
    assert dict(calls) == expected


@pytest.mark.parametrize(
    "method_id, expected",
    [
        ("hayner", {"predict_exact": 1}),
        ("torroba", {"predictive_qf": 1}),
        # the terrain is sparse, the stage-1 noise GP exact; the noise
        # field reads only the stage-1 mean, so it skips predict_exact
        ("ours-variational", {"predictive_qf": 1, "noise_variances": 1}),
        ("ours-exact", {"predict_exact": 1, "noise_variances": 1}),
    ],
)
def test_prediction_reaches_the_traced_layers(method_id, expected):
    """The tracer rebinds module attributes (and the noise-field method on
    its class); a model method bound to the original function object
    would bypass it and zero these per-layer counts."""
    scene = pipeline.make_scene(SynthParams(size=16, seed=2), noise_mode="split")
    model, stats, _ = _small_fit(method_id, scene)
    calls = Counter()
    with TRACING.Patcher() as patcher:
        patcher.wrap("terragp.exact_gp", "predict_exact", _counted(calls, "predict_exact"))
        patcher.wrap("terragp.svgp", "predictive_qf", _counted(calls, "predictive_qf"))
        patcher.wrap(
            "terragp.two_stage", "NoiseModel.noise_variances",
            _counted(calls, "noise_variances"),
        )
        pipeline.predict_grid(model, stats, scene.truth)
    assert dict(calls) == expected


def test_benchmark_selftest_passes():
    """perfbench's own self-test: every workload runs at toy size, traced
    and untraced, and reports every declared metric."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, cwd=PERFBENCH.parent, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
