import warnings

import numpy as np
import pytest

from terragp import modelio, pipeline, svgp
from terragp.cli import main
from terragp.grids import make_grid, read_asc, write_asc
from terragp.methods import method_defaults, with_overrides

SCENE_FILES = ("truth.asc", "dem.asc", "train.asc", "prior.asc", "uncertainty.asc")


def synth(tmp_path, name="scene", size=16, seed=0, extra=()):
    out = tmp_path / name
    code = main(
        ["synth", "--out-dir", str(out), "--size", str(size), "--seed", str(seed)]
        + list(extra)
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_five_files(self, tmp_path):
        out = synth(tmp_path)
        for name in SCENE_FILES:
            assert (out / name).exists()
        truth = read_asc(out / "truth.asc")
        train = read_asc(out / "train.asc")
        assert truth.nrows == 16 and train.nrows == 8

    def test_deterministic_bytes(self, tmp_path):
        a = synth(tmp_path, "a", seed=7)
        b = synth(tmp_path, "b", seed=7)
        for name in SCENE_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_flat_scene_is_pure_noise(self, tmp_path):
        out = synth(tmp_path, extra=("--craters", "0", "--amplitude", "0"))
        truth = read_asc(out / "truth.asc")
        np.testing.assert_array_equal(truth.values, 0.0)
        train = read_asc(out / "train.asc")
        assert train.values.std() > 0

    def test_seed_changes_noise_not_georeferencing(self, tmp_path):
        a = synth(tmp_path, "a", seed=1, extra=("--craters", "0"))
        b = synth(tmp_path, "b", seed=2, extra=("--craters", "0"))
        ta, tb = read_asc(a / "train.asc"), read_asc(b / "train.asc")
        assert not np.array_equal(ta.values, tb.values)
        assert ta.same_geometry(tb)

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_non_finite_split_ratio_is_config_error(self, tmp_path, ratio):
        out = tmp_path / "scene"
        code = main([
            "synth", "--out-dir", str(out), "--size", "16",
            "--noise-mode", "split", "--split-ratio", ratio,
        ])
        assert code == 2
        assert not out.exists()

    def test_split_mode(self, tmp_path):
        out = synth(tmp_path, extra=("--noise-mode", "split", "--split-ratio", "4"))
        unc = read_asc(out / "uncertainty.asc")
        left = unc.values[:, : unc.ncols // 2]
        right = unc.values[:, unc.ncols // 2 :]
        assert right.mean() / left.mean() == pytest.approx(4.0)


    @pytest.mark.parametrize("flag, value", [
        ("--sun-azimuth", "nan"), ("--sun-azimuth", "inf"), ("--sun-azimuth", "-inf"),
        ("--sun-elevation", "nan"), ("--amplitude", "nan"), ("--var-dark", "nan"),
    ])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "scene"
        code = main(["synth", "--out-dir", str(out), "--size", "16", f"{flag}={value}"])
        assert code == 2
        assert flag[2:].replace("-", "_") + " must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestFitCommand:
    def test_override_epochs_logged(self, tmp_path):
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        code = main([
            "fit", "--method", "tomita", "--train", str(out / "train.asc"),
            "--out", str(model), "--epochs", "5",
        ])
        assert code == 0
        rows = (tmp_path / "m.bin.loss.csv").read_text().strip().splitlines()
        assert rows[0] == "epoch,loss"
        assert len(rows) == 6

    def test_hayner_is_rbf(self, tmp_path):
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        main([
            "fit", "--method", "hayner", "--train", str(out / "train.asc"),
            "--out", str(model), "--epochs", "2",
        ])
        _, loaded, _ = modelio.load_model(model)
        assert loaded.kernel.family == "rbf"

    def test_ours_needs_noise_grid(self, tmp_path):
        out = synth(tmp_path)
        code = main([
            "fit", "--method", "ours-exact", "--train", str(out / "train.asc"),
            "--prior", str(out / "prior.asc"), "--out", str(tmp_path / "m.bin"),
        ])
        assert code == 2

    def test_ours_needs_prior_grid(self, tmp_path):
        out = synth(tmp_path)
        code = main([
            "fit", "--method", "ours-exact", "--train", str(out / "train.asc"),
            "--noise", str(out / "uncertainty.asc"), "--out", str(tmp_path / "m.bin"),
        ])
        assert code == 2

    def test_ours_variational_flags(self, tmp_path):
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        code = main([
            "fit", "--method", "ours-variational",
            "--train", str(out / "train.asc"),
            "--noise", str(out / "uncertainty.asc"),
            "--prior", str(out / "prior.asc"),
            "--out", str(model), "--epochs", "2", "--inducing", "16",
            "--batch-size", "32",
        ])
        assert code == 0
        _, loaded, _ = modelio.load_model(model)
        assert isinstance(loaded.terrain, svgp.SvgpState)
        assert loaded.terrain.Z.shape == (16, 2)

    def test_missing_train_file_is_data_error(self, tmp_path):
        code = main([
            "fit", "--method", "tomita", "--train", str(tmp_path / "nope.asc"),
            "--out", str(tmp_path / "m.bin"),
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "method, flags",
        [
            ("tomita", ["--lr", "-1"]),
            ("tomita", ["--epochs", "-3"]),
            ("tomita", ["--batch-size", "0"]),
            ("tomita", ["--batch-size", "-5"]),
            ("tomita", ["--fixed-noise", "-1"]),
            # enough inducing points for the 64-cell grid, so only the noise is wrong
            ("torroba", ["--fixed-noise", "0", "--inducing", "16"]),
        ],
        ids=lambda v: v if isinstance(v, str) else " ".join(v),
    )
    def test_bad_training_setting_is_config_error(self, tmp_path, method, flags):
        out = synth(tmp_path)
        code = main([
            "fit", "--method", method, "--train", str(out / "train.asc"),
            "--out", str(tmp_path / "m.bin"), "--epochs", "1", *flags,
        ])
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_training_cell_is_data_error(self, tmp_path, bad):
        out = synth(tmp_path)
        lines = (out / "train.asc").read_text().splitlines()
        cells = lines[7].split()
        cells[2] = bad
        lines[7] = " ".join(cells)
        (out / "train.asc").write_text("\n".join(lines) + "\n")
        code = main([
            "fit", "--method", "tomita", "--train", str(out / "train.asc"),
            "--out", str(tmp_path / "m.bin"), "--epochs", "1",
        ])
        assert code == 3

    def test_coordinates_too_large_to_normalize_are_data_error(self, tmp_path, capsys):
        # finite cell centers whose spread overflows float64 when squared
        train = tmp_path / "train.asc"
        write_asc(make_grid(np.random.default_rng(0).normal(size=(16, 16)), cellsize=1e300), train)
        model = tmp_path / "m.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["fit", "--method", "hayner", "--train", str(train), "--out", str(model)])
        assert code == 3
        assert "x standard deviation is not finite" in capsys.readouterr().err
        assert not model.exists()
        assert not (tmp_path / "m.bin.loss.csv").exists()

    @pytest.mark.parametrize("method, code", [("ours-exact", 3), ("hayner", 0)])
    def test_noise_variance_overflowing_normalization(self, tmp_path, method, code):
        """0.1 m^2 over 1e-156 m of relief is +inf once divided by std(Y)^2:
        the two-stage fit, which reads the variances, refuses it as bad
        data, and a homoscedastic fit, which does not, runs."""
        rng = np.random.default_rng(0)
        grids = {
            "train": make_grid(1e-156 * rng.normal(size=(8, 8))),
            "noise": make_grid(np.full((8, 8), 0.1)),
            "prior": make_grid(np.zeros((8, 8))),
        }
        argv = ["fit", "--method", method, "--out", str(tmp_path / "m.bin"), "--epochs", "1"]
        for name, grid in grids.items():
            write_asc(grid, tmp_path / f"{name}.asc")
            argv += [f"--{name}", str(tmp_path / f"{name}.asc")]
        assert main(argv) == code

    def test_absurd_learning_rate_is_numerical_error(self, tmp_path):
        out = synth(tmp_path)
        with np.errstate(all="ignore"):
            code = main([
                "fit", "--method", "tomita", "--train", str(out / "train.asc"),
                "--out", str(tmp_path / "m.bin"), "--lr", "1e12", "--epochs", "5",
            ])
        assert code == 4

    def test_out_of_memory_is_config_error(self, tmp_path, capsys, monkeypatch):
        # stands in for an exact fit whose n x n kernel matrix does not fit
        def fit_method(*args):
            raise MemoryError("Unable to allocate 20.8 GiB")

        monkeypatch.setattr(pipeline, "fit_method", fit_method)
        out = synth(tmp_path)
        code = main([
            "fit", "--method", "hayner", "--train", str(out / "train.asc"),
            "--out", str(tmp_path / "m.bin"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "out of memory" in err and "variational method" in err
        assert not (tmp_path / "m.bin").exists()


class TestPredictCommand:
    def test_noise_free_fit_interpolates_train(self, tmp_path):
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        main([
            "fit", "--method", "tomita", "--train", str(out / "train.asc"),
            "--out", str(model), "--fixed-noise", "0", "--epochs", "10",
        ])
        pred = tmp_path / "pred"
        code = main([
            "predict", "--model", str(model),
            "--target", str(out / "train.asc"), "--out-dir", str(pred),
        ])
        assert code == 0
        mean = read_asc(pred / "mean.asc")
        train = read_asc(out / "train.asc")
        rmse = float(np.sqrt(np.mean((mean.values - train.values) ** 2)))
        assert rmse < 1e-6

    def test_double_resolution_dims(self, tmp_path):
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        main([
            "fit", "--method", "tomita", "--train", str(out / "train.asc"),
            "--out", str(model), "--epochs", "2",
        ])
        pred = tmp_path / "pred"
        main([
            "predict", "--model", str(model),
            "--target", str(out / "truth.asc"), "--out-dir", str(pred),
        ])
        mean = read_asc(pred / "mean.asc")
        train = read_asc(out / "train.asc")
        assert mean.nrows == 2 * train.nrows and mean.ncols == 2 * train.ncols

    def test_variance_at_least_latent(self, tmp_path):
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        main([
            "fit", "--method", "ours-exact", "--train", str(out / "train.asc"),
            "--noise", str(out / "uncertainty.asc"),
            "--prior", str(out / "prior.asc"),
            "--out", str(model), "--epochs", "3",
        ])
        pred = tmp_path / "pred"
        main([
            "predict", "--model", str(model),
            "--target", str(out / "truth.asc"), "--out-dir", str(pred),
        ])
        var = read_asc(pred / "var.asc")
        latent = read_asc(pred / "latent_var.asc")
        assert np.all(var.values >= latent.values)

    def test_explicit_geometry_flags(self, tmp_path):
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        main([
            "fit", "--method", "tomita", "--train", str(out / "train.asc"),
            "--out", str(model), "--epochs", "2",
        ])
        pred = tmp_path / "pred"
        code = main([
            "predict", "--model", str(model), "--out-dir", str(pred),
            "--ncols", "4", "--nrows", "3", "--xll", "0", "--yll", "0",
            "--cellsize", "2.0",
        ])
        assert code == 0
        mean = read_asc(pred / "mean.asc")
        assert mean.nrows == 3 and mean.ncols == 4

    def test_conflicting_geometry_is_config_error(self, tmp_path):
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        main([
            "fit", "--method", "tomita", "--train", str(out / "train.asc"),
            "--out", str(model), "--epochs", "2",
        ])
        code = main([
            "predict", "--model", str(model), "--out-dir", str(tmp_path / "p"),
            "--target", str(out / "truth.asc"), "--ncols", "4",
        ])
        assert code == 2


    def test_truncated_model_is_data_error(self, tmp_path):
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        main([
            "fit", "--method", "hayner", "--train", str(out / "train.asc"),
            "--out", str(model), "--epochs", "2",
        ])
        model.write_bytes(model.read_bytes()[:-5])
        code = main([
            "predict", "--model", str(model),
            "--target", str(out / "truth.asc"), "--out-dir", str(tmp_path / "pred"),
        ])
        assert code == 3


    @pytest.mark.parametrize("cellsize", ["nan", "inf"])
    def test_bad_explicit_cellsize_is_config_error(self, tmp_path, cellsize):
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        main([
            "fit", "--method", "tomita", "--train", str(out / "train.asc"),
            "--out", str(model), "--epochs", "1",
        ])
        code = main([
            "predict", "--model", str(model), "--out-dir", str(tmp_path / "pred"),
            "--ncols", "4", "--nrows", "3", "--xll", "0", "--yll", "0",
            "--cellsize", cellsize,
        ])
        assert code == 2


    def test_overflowing_geometry_is_config_or_data_error(self, tmp_path, capsys):
        """Finite corners and cellsize whose far edge overflows: exit 2 from
        flags, exit 3 naming the file from a --target grid."""
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        main([
            "fit", "--method", "tomita", "--train", str(out / "train.asc"),
            "--out", str(model), "--epochs", "1",
        ])
        capsys.readouterr()
        code = main([
            "predict", "--model", str(model), "--out-dir", str(tmp_path / "pred"),
            "--ncols", "4", "--nrows", "3", "--xll", "1e308", "--yll", "0",
            "--cellsize", "1e308",
        ])
        assert code == 2
        assert "extent" in capsys.readouterr().err
        target = tmp_path / "far.asc"
        target.write_text(
            "ncols 4\nnrows 3\nxllcorner 0\nyllcorner 1e308\ncellsize 1e308\n"
            + "0 0 0 0\n" * 3
        )
        code = main([
            "predict", "--model", str(model), "--out-dir", str(tmp_path / "pred"),
            "--target", str(target),
        ])
        assert code == 3
        assert str(target) in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("flag, value", [("--nrows", "-1"), ("--ncols", "0")])
    def test_non_positive_explicit_size_is_config_error(self, tmp_path, capsys, flag, value):
        out = synth(tmp_path)
        model = tmp_path / "m.bin"
        main([
            "fit", "--method", "tomita", "--train", str(out / "train.asc"),
            "--out", str(model), "--epochs", "1",
        ])
        sizes = {"--ncols": "4", "--nrows": "3", flag: value}
        code = main(
            ["predict", "--model", str(model), "--out-dir", str(tmp_path / "pred"),
             "--xll", "0", "--yll", "0", "--cellsize", "1"]
            + [tok for item in sizes.items() for tok in item]
        )
        assert code == 2
        assert flag in capsys.readouterr().err


class TestEvalCommand:
    def test_perfect_prediction(self, tmp_path):
        out = synth(tmp_path)
        truth = read_asc(out / "truth.asc")
        from terragp.grids import write_asc

        write_asc(truth, tmp_path / "mean.asc")
        write_asc(truth.with_values(np.full_like(truth.values, 1e-8)), tmp_path / "var.asc")
        report = tmp_path / "report.txt"
        code = main([
            "eval", "--mean", str(tmp_path / "mean.asc"),
            "--var", str(tmp_path / "var.asc"),
            "--truth", str(out / "truth.asc"), "--out", str(report),
        ])
        assert code == 0
        values = dict(
            line.split("=")
            for line in report.read_text().strip().splitlines()
            if not line.startswith("#")
        )
        assert list(values) == ["rmse", "nlpd", "ause", "n_test"]
        assert float(values["rmse"]) == 0.0
        assert float(values["ause"]) == 0.0
        assert int(values["n_test"]) == truth.values.size

    def test_geometry_mismatch_is_data_error(self, tmp_path):
        out = synth(tmp_path)
        code = main([
            "eval", "--mean", str(out / "train.asc"),
            "--var", str(out / "uncertainty.asc"),
            "--truth", str(out / "truth.asc"), "--out", str(tmp_path / "r.txt"),
        ])
        assert code == 3

    def test_latent_variance_kind_recorded(self, tmp_path):
        out = synth(tmp_path)
        from terragp.grids import write_asc

        truth = read_asc(out / "truth.asc")
        write_asc(truth, tmp_path / "mean.asc")
        write_asc(truth.with_values(np.full_like(truth.values, 0.1)), tmp_path / "var.asc")
        report = tmp_path / "r.txt"
        code = main([
            "eval", "--mean", str(tmp_path / "mean.asc"),
            "--var", str(tmp_path / "var.asc"),
            "--truth", str(out / "truth.asc"), "--out", str(report),
            "--variance-kind", "latent",
        ])
        assert code == 0
        assert report.read_text().splitlines()[0] == "# variance=latent"

    def test_curves_csv_written(self, tmp_path):
        out = synth(tmp_path)
        from terragp.grids import write_asc

        truth = read_asc(out / "truth.asc")
        write_asc(truth, tmp_path / "mean.asc")
        write_asc(truth.with_values(np.full_like(truth.values, 0.1)), tmp_path / "var.asc")
        curves = tmp_path / "curves.csv"
        main([
            "eval", "--mean", str(tmp_path / "mean.asc"),
            "--var", str(tmp_path / "var.asc"),
            "--truth", str(out / "truth.asc"),
            "--out", str(tmp_path / "r.txt"), "--curves", str(curves),
        ])
        lines = curves.read_text().strip().splitlines()
        assert lines[0] == "fraction,model_mae,oracle_mae"
        assert len(lines) == 51


class TestHeatmapAndHillshade:
    def test_heatmap_roundtrip_dims(self, tmp_path):
        out = synth(tmp_path)
        pgm = tmp_path / "map.pgm"
        code = main(["heatmap", "--in", str(out / "truth.asc"), "--out", str(pgm)])
        assert code == 0
        raw = pgm.read_bytes()
        assert raw.startswith(b"P5\n16 16\n255\n")
        assert len(raw.rsplit(b"\n", 1)[1]) == 256

    @pytest.mark.parametrize("key, value, cells", [
        ("CELLSIZE", "-1", 256), ("CELLSIZE", "nan", 256), ("NCOLS", "0", 0),
        ("NCOLS", "2.7", 32),
    ])
    def test_bad_asc_header_is_data_error(self, tmp_path, capsys, key, value, cells):
        out = synth(tmp_path)
        lines = (out / "truth.asc").read_text().split()
        header = dict(zip(lines[0:12:2], lines[1:12:2]), **{key: value})
        bad = tmp_path / "bad.asc"
        bad.write_text(
            "".join(f"{k} {v}\n" for k, v in header.items()) + " ".join(lines[12:12 + cells])
        )
        code = main(["heatmap", "--in", str(bad), "--out", str(tmp_path / "map.pgm")])
        assert code == 3
        assert "bad.asc" in capsys.readouterr().err

    def test_hillshade_output_range(self, tmp_path):
        out = synth(tmp_path)
        shade = tmp_path / "shade.asc"
        code = main([
            "hillshade", "--in", str(out / "truth.asc"), "--out", str(shade),
            "--azimuth", "315", "--elevation", "30",
        ])
        assert code == 0
        s = read_asc(shade)
        assert s.values.min() >= 0.0 and s.values.max() <= 1.0


    @pytest.mark.parametrize("flag, value", [
        ("--azimuth", "inf"), ("--azimuth", "nan"), ("--elevation", "nan"),
    ])
    def test_non_finite_sun_angle_is_config_error(self, tmp_path, capsys, flag, value):
        out = synth(tmp_path)
        shade = tmp_path / "shade.asc"
        code = main(["hillshade", "--in", str(out / "truth.asc"), "--out", str(shade), flag, value])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not shade.exists()


class TestComposedPipeline:
    def test_files_match_in_process(self, tmp_path):
        out = synth(tmp_path, size=16, seed=3)
        model_path = tmp_path / "m.bin"
        main([
            "fit", "--method", "ours-exact", "--train", str(out / "train.asc"),
            "--noise", str(out / "uncertainty.asc"),
            "--prior", str(out / "prior.asc"),
            "--out", str(model_path), "--epochs", "4", "--seed", "9",
        ])
        pred = tmp_path / "pred"
        main([
            "predict", "--model", str(model_path),
            "--target", str(out / "truth.asc"), "--out-dir", str(pred),
        ])
        report = tmp_path / "report.txt"
        main([
            "eval", "--mean", str(pred / "mean.asc"), "--var", str(pred / "var.asc"),
            "--truth", str(out / "truth.asc"), "--out", str(report),
        ])
        file_metrics = dict(
            line.split("=")
            for line in report.read_text().strip().splitlines()
            if not line.startswith("#")
        )

        method = with_overrides(method_defaults("ours-exact"), epochs=4)
        model, stats, _ = pipeline.fit_method(
            method,
            read_asc(out / "train.asc"),
            read_asc(out / "uncertainty.asc"),
            read_asc(out / "prior.asc"),
            seed=9,
        )
        mg, lg, pg = pipeline.predict_grid(model, stats, read_asc(out / "truth.asc"))
        rep = pipeline.evaluate_grids(mg, pg, read_asc(out / "truth.asc"))
        assert abs(rep.rmse - float(file_metrics["rmse"])) < 1e-9
        assert abs(rep.nlpd - float(file_metrics["nlpd"])) < 1e-9
        assert abs(rep.ause - float(file_metrics["ause"])) < 1e-9


class TestSweepCommand:
    def test_cross_product_csv(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--sizes", "40,60", "--inducing", "4,8,12",
            "--out", str(csv), "--seed", "0", "--epochs", "2",
            "--noise-epochs", "2", "--batch-size", "20",
        ])
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,m_inducing,rmse,wall_seconds"
        assert len(lines) == 7
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("40", "4"), ("40", "8"), ("40", "12"),
            ("60", "4"), ("60", "8"), ("60", "12"),
        ]
        for r in rows:
            assert float(r[2]) > 0 and float(r[3]) > 0

    def test_bad_list_is_config_error(self, tmp_path):
        code = main([
            "sweep", "--sizes", "abc", "--inducing", "4",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--sizes", "-5"), ("--inducing", "0")])
    def test_non_positive_list_entry_is_config_error(self, tmp_path, capsys, flag, value):
        lists = {"--sizes": "40", "--inducing": "4", flag: value}
        code = main(
            ["sweep", "--out", str(tmp_path / "s.csv"), "--epochs", "1", "--noise-epochs", "1"]
            + [tok for item in lists.items() for tok in item]
        )
        assert code == 2
        assert flag in capsys.readouterr().err
