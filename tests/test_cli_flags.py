"""The command line's surface and where each flag lands.

`TestSurface` pins every verb's flags, in order, with their type,
default, choices and `required`, so that no refactor of `cli.py` can add,
drop or retype one unnoticed.  The other classes spy on the pipeline
calls behind `cli.main` and show that each flag which sets a config
field reaches that field, and only that field."""

import argparse
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from terragp import cli, pipeline
from terragp.errors import InvalidConfigError
from terragp.grids import read_asc
from terragp.methods import method_defaults
from terragp.synth import SynthParams

SRC = Path(__file__).resolve().parents[1] / "src"

FAMILIES = ("rbf", "rq", "abs_exp", "matern")
METHODS = ("tomita", "hayner", "torroba", "ours-exact", "ours-variational")

# verb -> [(flag, (type, default, choices, required))], in parser order
SURFACE = {
    "synth": [
        ("--out-dir", (None, None, None, True)),
        ("--size", (int, 64, None, False)),
        ("--seed", (int, 0, None, False)),
        ("--amplitude", (float, 2.0, None, False)),
        ("--roughness", (float, 3.2, None, False)),
        ("--craters", (int, 3, None, False)),
        ("--radius-min", (float, 3.0, None, False)),
        ("--radius-max", (float, 6.0, None, False)),
        ("--rim-fraction", (float, 0.35, None, False)),
        ("--sun-azimuth", (float, 315.0, None, False)),
        ("--sun-elevation", (float, 20.0, None, False)),
        ("--var-dark", (float, 1.2, None, False)),
        ("--var-lit", (float, 0.12, None, False)),
        ("--cellsize", (float, 1.0, None, False)),
        ("--noise-mode", (None, "shadow", ("shadow", "split"), False)),
        ("--split-ratio", (float, 10.0, None, False)),
    ],
    "fit": [
        ("--method", (None, None, METHODS, True)),
        ("--train", (None, None, None, True)),
        ("--noise", (None, None, None, False)),
        ("--prior", (None, None, None, False)),
        ("--out", (None, None, None, True)),
        ("--seed", (int, 0, None, False)),
        ("--epochs", (int, None, None, False)),
        ("--lr", (float, None, None, False)),
        ("--inducing", (int, None, None, False)),
        ("--batch-size", (int, None, None, False)),
        ("--kernel", (None, None, FAMILIES, False)),
        ("--nu", (float, None, (0.5, 1.5, 2.5), False)),
        ("--mean", (None, None, ("constant", "zero", "prior"), False)),
        ("--fixed-noise", (float, None, None, False)),
        ("--loss-csv", (None, None, None, False)),
    ],
    "predict": [
        ("--model", (None, None, None, True)),
        ("--target", (None, None, None, False)),
        ("--ncols", (int, None, None, False)),
        ("--nrows", (int, None, None, False)),
        ("--xll", (float, None, None, False)),
        ("--yll", (float, None, None, False)),
        ("--cellsize", (float, None, None, False)),
        ("--out-dir", (None, None, None, True)),
    ],
    "eval": [
        ("--mean", (None, None, None, True)),
        ("--var", (None, None, None, True)),
        ("--truth", (None, None, None, True)),
        ("--out", (None, None, None, True)),
        ("--curves", (None, None, None, False)),
        ("--ause-normalized", (None, False, None, False)),
        ("--variance-kind", (None, "predictive", ("predictive", "latent"), False)),
    ],
    "sweep": [
        ("--sizes", (None, None, None, True)),
        ("--inducing", (None, None, None, True)),
        ("--out", (None, None, None, True)),
        ("--seed", (int, 0, None, False)),
        ("--epochs", (int, None, None, False)),
        ("--noise-epochs", (int, None, None, False)),
        ("--batch-size", (int, None, None, False)),
    ],
    "heatmap": [
        ("--in", (None, None, None, True)),
        ("--out", (None, None, None, True)),
    ],
    "hillshade": [
        ("--in", (None, None, None, True)),
        ("--out", (None, None, None, True)),
        ("--azimuth", (float, 315.0, None, False)),
        ("--elevation", (float, 45.0, None, False)),
    ],
}


def verb_parsers(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestSurface:
    def test_verbs(self):
        assert list(verb_parsers(cli.build_parser())) == list(SURFACE)

    @pytest.mark.parametrize("verb", list(SURFACE))
    def test_flags(self, verb):
        p = verb_parsers(cli.build_parser())[verb]
        flags = [
            (a.option_strings[-1], (
                a.type, a.default, None if a.choices is None else tuple(a.choices), a.required,
            ))
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert flags == SURFACE[verb]

    def test_module_entry_point_runs(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "terragp", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: terragp")
        for verb in SURFACE:
            assert verb in done.stdout


class Stop(InvalidConfigError):
    """Raised by a spy once it has seen its call, so no work is done."""


@pytest.fixture
def train_asc(tmp_path):
    scene = tmp_path / "scene"
    assert cli.main(["synth", "--out-dir", str(scene), "--size", "16"]) == 0
    return scene / "train.asc"


@pytest.fixture
def fit_calls(monkeypatch):
    calls = []

    def spy(method, train, uncertainty, prior, seed):
        calls.append((method, seed))
        raise Stop("spied")

    monkeypatch.setattr(pipeline, "fit_method", spy)
    return calls


def fit_config(train_asc, tmp_path, fit_calls, method, *flags):
    argv = ["fit", "--method", method, "--train", str(train_asc),
            "--out", str(tmp_path / "m.bin"), *flags]
    assert cli.main(argv) == Stop.exit_code
    ((config, seed),) = fit_calls
    return config, seed


class TestFitFlagsReachMethodConfig:
    def test_no_flags_keep_the_defaults(self, train_asc, tmp_path, fit_calls):
        config, seed = fit_config(train_asc, tmp_path, fit_calls, "torroba")
        assert config == method_defaults("torroba")
        assert seed == 0

    def test_seed_reaches_the_fit(self, train_asc, tmp_path, fit_calls):
        _, seed = fit_config(train_asc, tmp_path, fit_calls, "torroba", "--seed", "5")
        assert seed == 5

    @pytest.mark.parametrize("flag, text, field, value", [
        ("--epochs", "7", "epochs", 7),
        ("--lr", "0.0625", "learning_rate", 0.0625),
        ("--inducing", "24", "num_inducing", 24),
        ("--batch-size", "40", "batch_size", 40),
        ("--kernel", "rq", "kernel_family", "rq"),
        ("--nu", "1.5", "nu", 1.5),
        ("--mean", "zero", "mean_kind", "zero"),
    ])
    def test_override_lands_in_its_field(self, train_asc, tmp_path, fit_calls,
                                         flag, text, field, value):
        defaults = method_defaults("torroba")
        assert getattr(defaults, field) != value
        config, _ = fit_config(train_asc, tmp_path, fit_calls, "torroba", flag, text)
        assert config == replace(defaults, **{field: value})

    def test_fixed_noise_is_normalized_by_the_training_variance(self, train_asc, tmp_path,
                                                                 fit_calls):
        config, _ = fit_config(train_asc, tmp_path, fit_calls, "tomita", "--fixed-noise", "0.5")
        y = read_asc(train_asc).values
        expected = 0.5 / np.std(y[np.isfinite(y)]) ** 2
        assert config.fixed_noise_var == pytest.approx(expected, rel=1e-12)
        assert config == replace(method_defaults("tomita"), fixed_noise_var=config.fixed_noise_var)


class TestSynthFlagsReachSynthParams:
    @pytest.fixture
    def scene_calls(self, monkeypatch):
        calls = []

        def spy(params, noise_mode, split_ratio):
            calls.append((params, noise_mode, split_ratio))
            raise Stop("spied")

        monkeypatch.setattr(pipeline, "make_scene", spy)
        return calls

    def synth_call(self, tmp_path, scene_calls, *flags):
        out = tmp_path / "scene"
        assert cli.main(["synth", "--out-dir", str(out), *flags]) == Stop.exit_code
        assert not out.exists()
        (call,) = scene_calls
        return call

    def test_no_flags_keep_the_defaults(self, tmp_path, scene_calls):
        assert self.synth_call(tmp_path, scene_calls) == (SynthParams(), "shadow", 10.0)

    @pytest.mark.parametrize("flag, text, field, value", [
        ("--size", "20", "size", 20),
        ("--seed", "3", "seed", 3),
        ("--amplitude", "1.5", "amplitude", 1.5),
        ("--roughness", "2.5", "roughness", 2.5),
        ("--craters", "2", "crater_count", 2),
        ("--radius-min", "2.5", "radius_min", 2.5),
        ("--radius-max", "5", "radius_max", 5.0),
        ("--rim-fraction", "0.25", "rim_fraction", 0.25),
        ("--sun-azimuth", "90", "sun_azimuth", 90.0),
        ("--sun-elevation", "45", "sun_elevation", 45.0),
        ("--var-dark", "2", "var_dark", 2.0),
        ("--var-lit", "0.2", "var_lit", 0.2),
        ("--cellsize", "2", "cellsize", 2.0),
    ])
    def test_flag_lands_in_its_field(self, tmp_path, scene_calls, flag, text, field, value):
        assert getattr(SynthParams(), field) != value
        params, _, _ = self.synth_call(tmp_path, scene_calls, flag, text)
        assert params == replace(SynthParams(), **{field: value})
        assert type(getattr(params, field)) is type(value)

    def test_noise_mode_and_split_ratio_reach_the_scene(self, tmp_path, scene_calls):
        call = self.synth_call(tmp_path, scene_calls, "--noise-mode", "split",
                               "--split-ratio", "4")
        assert call == (SynthParams(), "split", 4.0)


def test_explicit_geometry_reaches_the_written_header(tmp_path, train_asc):
    model = tmp_path / "m.bin"
    assert cli.main(["fit", "--method", "tomita", "--train", str(train_asc),
                     "--out", str(model), "--epochs", "1"]) == 0
    pred = tmp_path / "pred"
    assert cli.main([
        "predict", "--model", str(model), "--out-dir", str(pred),
        "--ncols", "5", "--nrows", "2", "--xll", "12.5", "--yll", "-3.25",
        "--cellsize", "0.75",
    ]) == 0
    for name in ("mean.asc", "var.asc", "latent_var.asc"):
        header = (pred / name).read_text().splitlines()[:5]
        assert header == [
            "NCOLS 5", "NROWS 2", "XLLCORNER 12.5", "YLLCORNER -3.25", "CELLSIZE 0.75",
        ]
