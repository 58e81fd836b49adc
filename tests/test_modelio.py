import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terragp import exact_gp, kernels, modelio, pipeline, svgp, two_stage
from terragp.datasets import NormStats, grid_to_dataset
from terragp.errors import DataFormatError, TerraGpError
from terragp.grids import DemGrid
from terragp.means import ConstantMean, GridInterpMean, ZeroMean
from terragp.methods import method_defaults, with_overrides
from terragp.pipeline import make_scene
from terragp.synth import SynthParams

from helpers import with_nodata


def small_scene():
    return make_scene(SynthParams(size=16, seed=2), noise_mode="split")


class TestPayloadCodec:
    def test_scalar_and_array_roundtrip(self, rng):
        payload = {
            "a_float": 1.5,
            "b_int": 42,
            "c_str": "hello",
            "d_bool": True,
            "e_arr": rng.normal(size=(3, 4)),
            "f_vec": rng.normal(size=7),
        }
        back = modelio.bytes_to_payload(modelio.payload_to_bytes(payload))
        assert back["a_float"] == 1.5
        assert back["b_int"] == 42 and isinstance(back["b_int"], int)
        assert back["c_str"] == "hello"
        assert back["d_bool"] is True
        np.testing.assert_array_equal(back["e_arr"], payload["e_arr"])
        np.testing.assert_array_equal(back["f_vec"], payload["f_vec"])

    def test_bad_magic_rejected(self):
        with pytest.raises(DataFormatError, match="magic"):
            modelio.bytes_to_payload(b"NOPE\x01")

    def test_bad_version_rejected(self):
        raw = bytearray(modelio.payload_to_bytes({"x": 1.0}))
        raw[4] = 99
        with pytest.raises(DataFormatError, match="version"):
            modelio.bytes_to_payload(bytes(raw))

    def test_serialization_bitwise_stable(self, rng):
        payload = {"arr": rng.normal(size=(5, 5)), "v": 3.25}
        a = modelio.payload_to_bytes(payload)
        b = modelio.payload_to_bytes(modelio.bytes_to_payload(a))
        assert a == b


class TestModelRoundtrips:
    def test_exact_model(self, tmp_path, rng):
        scene = small_scene()
        data = grid_to_dataset(scene.train)
        method = with_overrides(method_defaults("tomita"), epochs=3)
        model = exact_gp.fit_exact(data, method, seed=0)
        path = tmp_path / "m.bin"
        modelio.save_model(path, "tomita", model, data.stats)
        mid, loaded, stats = modelio.load_model(path)
        assert mid == "tomita"
        assert loaded.kernel == model.kernel
        np.testing.assert_array_equal(loaded.X, model.X)
        np.testing.assert_array_equal(loaded.noise_var, model.noise_var)
        # predictions identical after reload
        q = rng.normal(size=(9, 2))
        np.testing.assert_array_equal(
            exact_gp.predict_exact(model, q)[0], exact_gp.predict_exact(loaded, q)[0]
        )
        # save -> load -> save is byte identical
        path2 = tmp_path / "m2.bin"
        modelio.save_model(path2, mid, loaded, stats)
        assert path.read_bytes() == path2.read_bytes()

    def test_grid_exact_model_reloads_without_a_factor(self, tmp_path):
        """A hayner model trained on a grid, complete or with nodata
        cells, holds no Cholesky factor, and neither does its reload:
        `load_model` rebuilds it through `build_model`, which takes the
        same eigenbasis.  The file format is unchanged, save -> load ->
        save is byte identical, and the reloaded maps are the in-memory
        model's bit for bit."""
        scene = small_scene()
        method = with_overrides(method_defaults("hayner"), epochs=3)
        for nodata in ([], [5, 17, 18, 40]):
            train = with_nodata(scene.train, nodata)
            model, stats, _ = pipeline.fit_method(method, train, None, None, seed=0)
            assert model.chol is None
            path = tmp_path / "h.bin"
            modelio.save_model(path, "hayner", model, stats)
            _, loaded, loaded_stats = modelio.load_model(path)
            assert loaded.chol is None
            np.testing.assert_array_equal(loaded.alpha, model.alpha)
            for a, b in zip(pipeline.predict_grid(model, stats, scene.truth),
                            pipeline.predict_grid(loaded, loaded_stats, scene.truth)):
                assert a.values.tobytes() == b.values.tobytes()
            path2 = tmp_path / "h2.bin"
            modelio.save_model(path2, "hayner", loaded, loaded_stats)
            assert path.read_bytes() == path2.read_bytes()

    def test_svgp_model(self, tmp_path, rng):
        scene = small_scene()
        data = grid_to_dataset(scene.train)
        method = with_overrides(
            method_defaults("torroba"), epochs=2, num_inducing=8, batch_size=16
        )
        state = svgp.fit_svgp(data, method, seed=1)
        path = tmp_path / "s.bin"
        modelio.save_model(path, "torroba", state, data.stats)
        mid, loaded, stats = modelio.load_model(path)
        assert mid == "torroba"
        np.testing.assert_array_equal(loaded.Z, state.Z)
        np.testing.assert_array_equal(loaded.mvec, state.mvec)
        np.testing.assert_array_equal(loaded.L, state.L)
        assert loaded.log_noise_var == state.log_noise_var
        path2 = tmp_path / "s2.bin"
        modelio.save_model(path2, mid, loaded, stats)
        assert path.read_bytes() == path2.read_bytes()

    def test_two_stage_model(self, tmp_path):
        scene = small_scene()
        data = grid_to_dataset(scene.train, scene.uncertainty)
        method = with_overrides(method_defaults("ours-exact"), epochs=2)
        mean_fn = GridInterpMean(scene.prior, data.stats)
        model = two_stage.fit_two_stage(data, method, seed=0, mean_fn=mean_fn)
        path = tmp_path / "t.bin"
        modelio.save_model(path, "ours-exact", model, data.stats)
        mid, loaded, stats = modelio.load_model(path)
        assert mid == "ours-exact"
        assert isinstance(loaded.terrain, exact_gp.ExactGpModel)
        pts = scene.truth.cell_centers()[:17]
        a = two_stage.predict_terrain(model, data.stats, pts)
        b = two_stage.predict_terrain(loaded, stats, pts)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, atol=1e-12)
        path2 = tmp_path / "t2.bin"
        modelio.save_model(path2, mid, loaded, stats)
        assert path.read_bytes() == path2.read_bytes()

    def test_two_stage_with_sparse_stage_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(two_stage, "STAGE1_EXACT_MAX_N", 10)
        scene = small_scene()
        data = grid_to_dataset(scene.train, scene.uncertainty)
        method = with_overrides(method_defaults("ours-exact"), epochs=2)
        mean_fn = GridInterpMean(scene.prior, data.stats)
        model = two_stage.fit_two_stage(data, method, seed=0, mean_fn=mean_fn)
        assert isinstance(model.noise.gp, svgp.SvgpState)
        assert isinstance(model.terrain, exact_gp.ExactGpModel)
        path = tmp_path / "t.bin"
        modelio.save_model(path, "ours-exact", model, data.stats)
        mid, loaded, stats = modelio.load_model(path)
        pts = scene.truth.cell_centers()
        for a, b in zip(two_stage.predict_terrain(model, data.stats, pts),
                        two_stage.predict_terrain(loaded, stats, pts)):
            np.testing.assert_array_equal(a, b)
        path2 = tmp_path / "t2.bin"
        modelio.save_model(path2, mid, loaded, stats)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("method_id", ["tomita", "ours-exact"])
    def test_noise_learned_section_of_older_files_is_ignored(self, method_id):
        """Exact GPs were once saved with a bool `noise_learned` section
        after `homoscedastic`.  Loading reads only the sections it asks
        for, so such a file loads and predicts bit for bit like the same
        payload without it, and saving writes no such section."""
        scene = small_scene()
        method = with_overrides(method_defaults(method_id), epochs=2)
        model, stats, _ = pipeline.fit_method(
            method, scene.train, scene.uncertainty, scene.prior, seed=0
        )
        payload = modelio.model_payload(method_id, model, stats)
        assert not any(key.endswith("noise_learned") for key in payload)
        older = {}
        for key, value in payload.items():
            older[key] = value
            if key.endswith("homoscedastic"):
                older[key.replace("homoscedastic", "noise_learned")] = False
        assert len(older) > len(payload)
        points = scene.truth.cell_centers()[::5]
        maps = []
        for p in (payload, older):
            _, loaded, loaded_stats = modelio.model_from_payload(
                modelio.bytes_to_payload(modelio.payload_to_bytes(p))
            )
            maps.append(two_stage.predict_terrain(loaded, loaded_stats, points))
        for a, b in zip(*maps, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_mean_function_kinds(self, tmp_path, rng):
        scene = small_scene()
        data = grid_to_dataset(scene.train)
        X, Y = data.X[:6], data.Y[:6]
        kernel = kernels.KernelConfig(kernels.RBF)
        for mean_fn in (
            ZeroMean(),
            ConstantMean(0.3, learnable=True),
            GridInterpMean(scene.prior, data.stats),
        ):
            model = exact_gp.build_model(
                X, Y, mean_fn, kernel, np.full(6, 0.1),
                homoscedastic=True,
            )
            path = tmp_path / "mean.bin"
            modelio.save_model(path, "tomita", model, data.stats)
            _, loaded, _ = modelio.load_model(path)
            q = rng.normal(size=(5, 2))
            np.testing.assert_allclose(
                loaded.mean_fn(q), mean_fn(q), atol=1e-12
            )


# one exact and one variational method of each model kind: a single GP
# and the two-stage model
PAYLOAD_METHODS = {
    "hayner": {},
    "torroba": {"num_inducing": 8, "batch_size": 16},
    "ours-exact": {},
    "ours-variational": {"num_inducing": 8, "batch_size": 16},
}


@pytest.fixture(scope="module")
def method_payloads():
    """method id -> the payload of a model fit for one epoch."""
    scene = small_scene()
    payloads = {}
    for method_id, overrides in PAYLOAD_METHODS.items():
        method = with_overrides(method_defaults(method_id), epochs=1, **overrides)
        model, stats, _ = pipeline.fit_method(
            method, scene.train, scene.uncertainty, scene.prior, seed=1
        )
        payloads[method_id] = modelio.model_payload(method_id, model, stats)
    return payloads


def _poison(value, where=0, bad=np.nan):
    out = np.array(value, dtype=float)
    out.flat[where] = bad
    return out


@pytest.fixture(scope="module")
def two_stage_payload():
    scene = small_scene()
    data = grid_to_dataset(scene.train, scene.uncertainty)
    method = with_overrides(method_defaults("ours-exact"), epochs=2)
    mean_fn = GridInterpMean(scene.prior, data.stats)
    model = two_stage.fit_two_stage(data, method, seed=0, mean_fn=mean_fn)
    return modelio.model_payload("ours-exact", model, data.stats)


class TestCorruptFiles:
    def test_truncation_at_every_offset_is_format_error(self):
        scene = small_scene()
        data = grid_to_dataset(scene.train)
        model = exact_gp.fit_exact(
            data, with_overrides(method_defaults("hayner"), epochs=2), seed=0
        )
        raw = modelio.payload_to_bytes(modelio.model_payload("hayner", model, data.stats))
        for cut in range(len(raw)):
            with pytest.raises(DataFormatError):
                modelio.model_from_payload(modelio.bytes_to_payload(raw[:cut]))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("terrain.model_kind", "gp", "terrain.model_kind"),
            ("noise.model_kind", "svgp", "noise.inducing"),
            ("terrain.model_kind", None, "terrain.model_kind"),
            ("model_kind", None, "'model_kind'"),
            ("stats.y_std", None, "stats.y_std"),
            ("terrain.noise_var", "x", "terrain.noise_var"),
            ("noise.mean.constant", "x", "noise.mean.constant"),
            ("terrain.kernel.log_lengthscale", "x", "terrain.kernel.log_lengthscale"),
            ("terrain.kernel.family", "bogus", r"terrain\.kernel.*'bogus'"),
            ("noise.homoscedastic", "x", "noise.homoscedastic"),
            ("stats.y_std", "x", "stats.y_std"),
            # values of the right type but out of range or of the wrong shape;
            # a callable maps the stored value to the corrupt one
            ("stats.y_std", 0.0, "stats.y_std"),
            ("stats.y_std", float("nan"), "stats.y_std"),
            ("stats.x_std", np.array([1.0, 0.0]), "stats.x_std"),
            ("stats.x_std", np.array([1.0, np.inf]), "stats.x_std"),
            ("stats.x_mean", np.zeros(3), "stats.x_mean"),
            ("stats.x_std", np.ones(3), "stats.x_std"),
            ("terrain.mean.grid_cellsize", -1.0, r"terrain\.mean\.grid_.*cellsize"),
            ("noise.train_x", lambda x: np.hstack([x, x[:, :1]]), "noise.train_x"),
            ("terrain.train_x", lambda x: x[:, 0], "terrain.train_x"),
            ("terrain.train_x", lambda x: x[:0], "terrain.train_x' must have 2 columns and a row"),
            ("terrain.mean.grid_values", np.ravel, "terrain.mean.grid_values"),
            ("terrain.train_y", lambda y: y[:-1], "terrain.train_y"),
        ],
    )
    def test_inconsistent_sections_are_format_errors(
        self, two_stage_payload, key, value, message
    ):
        payload = dict(two_stage_payload)
        if value is None:
            del payload[key]
        elif callable(value):
            payload[key] = value(payload[key])
        else:
            payload[key] = value
        with pytest.raises(DataFormatError, match=message):
            modelio.model_from_payload(payload)

    @pytest.mark.parametrize(
        "key, corrupt",
        [
            ("inducing", lambda z: np.hstack([z, z[:, :1]])),
            ("stats.y_std", lambda _: 0.0),
            ("whitened_mean", lambda v: v[:-1]),
            ("whitened_chol", np.ravel),
            ("whitened_chol", lambda c: _poison(c, where=0)),
            ("whitened_chol", lambda c: c[:, :-1]),
            ("whitened_chol", np.zeros_like),
            ("whitened_chol", lambda c: c + np.triu(np.ones_like(c), 1)),
            ("whitened_chol", lambda c: c - 2.0 * np.diag(np.diag(c))),
        ],
    )
    def test_variational_sections_are_checked(self, method_payloads, key, corrupt):
        # a bad scale, inducing set or q(u) used to load and predict nonsense
        # or fail with a raw error
        payload = dict(method_payloads["torroba"])
        payload[key] = corrupt(payload[key])
        with pytest.raises(DataFormatError, match=key):
            modelio.model_from_payload(payload)

    @pytest.mark.parametrize(
        "method_id, key, corrupt",
        [
            ("hayner", "mean.constant", lambda _: np.nan),
            ("hayner", "stats.y_mean", lambda _: np.nan),
            ("hayner", "stats.x_mean", _poison),
            ("hayner", "train_y", _poison),
            ("hayner", "noise_var", lambda v: _poison(v, bad=np.inf)),
            ("torroba", "log_noise_var", lambda _: np.nan),
            ("torroba", "kernel.log_lengthscale", lambda _: -np.inf),
            ("ours-exact", "terrain.mean.grid_values", _poison),
            ("ours-variational", "noise.train_x", lambda x: _poison(x, where=3)),
        ],
    )
    def test_non_finite_sections_are_format_errors(
        self, method_payloads, method_id, key, corrupt
    ):
        payload = dict(method_payloads[method_id])
        payload[key] = corrupt(payload[key])
        with pytest.raises(DataFormatError, match=f"{key}' must be finite"):
            modelio.model_from_payload(payload)

    def test_unwhitened_svgp_sections_are_rejected(self, method_payloads):
        # SVGP files once held q(u) unwhitened, under other names; such a
        # file must fail, never load with the whitened meaning
        payload = dict(method_payloads["torroba"])
        payload["variational_mean"] = payload.pop("whitened_mean")
        payload["variational_chol"] = payload.pop("whitened_chol")
        with pytest.raises(DataFormatError, match="whitened_mean"):
            modelio.model_from_payload(payload)


def golden_models():
    """name -> (model, stats): an exact model with a grid mean and an SVGP
    with a constant mean and a noise of its own, both built from fixed
    arrays without fitting."""
    stats = NormStats(np.array([50.0, 40.0]), np.array([20.0, 25.0]), 3.5, 1.25)
    t = np.arange(12.0)
    X = np.column_stack([np.cos(t), np.sin(0.7 * t)])
    grid = DemGrid(ncols=3, nrows=2, xllcorner=0.5, yllcorner=-1.0, cellsize=40.0,
                   nodata=-9999.0, values=np.arange(6.0).reshape(2, 3) / 7.0)
    exact = exact_gp.build_model(
        X, np.sin(t) - 0.1 * t, GridInterpMean(grid, stats),
        kernels.KernelConfig(kernels.RATIONAL_QUADRATIC, -0.5, 0.25, 0.125),
        0.01 + 0.001 * t, homoscedastic=False,
    )
    m = 4
    state = svgp.SvgpState(
        Z=X[:m].copy(), mvec=np.linspace(-0.3, 0.3, m),
        L=np.tril(np.full((m, m), 0.05)) + np.diag(np.linspace(0.5, 0.8, m)),
        kernel=kernels.KernelConfig(kernels.MATERN, -0.25, 0.5, nu=1.5),
        mean_fn=ConstantMean(0.125, learnable=False), log_noise_var=-3.0,
    )
    return {"exact": (exact, stats), "svgp": (state, stats)}


# SHA-256 of each golden model's file, as the per-component writers that
# preceded the schema tables wrote it: the layout of version 1 files
GOLDEN_SHA256 = {
    "exact": "3275c36ac7e96ff6e9377c4ac61a76140b7bdbabc98c7091df383b48701022eb",
    "svgp": "c71cc93e29e9f8bef81e5c34758d2f2a2edc85667b5da36930c51ef063f59413",
}


class TestSchema:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_files_keep_their_bytes(self, tmp_path, name):
        model, stats = golden_models()[name]
        path = tmp_path / f"{name}.bin"
        modelio.save_model(path, name, model, stats)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
        mid, loaded, loaded_stats = modelio.load_model(path)
        again = tmp_path / "again.bin"
        modelio.save_model(again, mid, loaded, loaded_stats)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("variational", [True, False])
    @pytest.mark.parametrize("method_id", ["ours-exact", "ours-variational"])
    def test_variational_section_of_older_files_is_ignored(
        self, method_payloads, method_id, variational
    ):
        """Two-stage files once carried a bool `variational` section after
        `model_kind`, a copy of whether the terrain GP is an SVGP.  Such a
        file loads whether or not the copy agrees, predicts bit for bit
        like the same payload without it, and is saved without it."""
        payload = method_payloads[method_id]
        assert "variational" not in payload
        older = {}
        for key, value in payload.items():
            older[key] = value
            if key == "model_kind":
                older["variational"] = variational
        raw = modelio.payload_to_bytes(payload)
        older_raw = modelio.payload_to_bytes(older)
        assert len(older_raw) == len(raw) + 23  # key length, key, tag, size, one byte
        points = small_scene().truth.cell_centers()[::5]
        maps = []
        for r in (raw, older_raw):
            mid, loaded, stats = modelio.model_from_payload(modelio.bytes_to_payload(r))
            maps.append(two_stage.predict_terrain(loaded, stats, points))
            assert modelio.payload_to_bytes(modelio.model_payload(mid, loaded, stats)) == raw
        for a, b in zip(*maps, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_every_written_section_is_read(self, monkeypatch, method_payloads):
        """Loading reads each section that saving writes, so no section is
        written only to be skipped on load."""
        read = set()

        class Recording(modelio._Sections):
            def __getitem__(self, key):
                read.add(self.prefix + key)
                return super().__getitem__(key)

        payloads = list(method_payloads.values())
        scene = small_scene()
        monkeypatch.setattr(two_stage, "STAGE1_EXACT_MAX_N", 10)
        method = with_overrides(method_defaults("ours-exact"), epochs=1)
        sparse, stats, _ = pipeline.fit_method(
            method, scene.train, scene.uncertainty, scene.prior, seed=1
        )
        assert isinstance(sparse.noise.gp, svgp.SvgpState)
        payloads.append(modelio.model_payload("ours-exact", sparse, stats))
        golden = golden_models()
        for name, (model, stats) in golden.items():
            payloads.append(modelio.model_payload(name, model, stats))
        model, stats = golden["exact"]
        model.mean_fn = ZeroMean()
        payloads.append(modelio.model_payload("tomita", model, stats))
        monkeypatch.setattr(modelio, "_Sections", Recording)
        for payload in payloads:
            read.clear()
            modelio.model_from_payload(payload)
            assert read == set(payload)

    def test_unknown_types_cannot_be_saved(self, tmp_path):
        """A model or a mean function of a class that no table stores, a
        subclass of a stored one included, is refused by name before the
        file is opened."""

        class UnknownModel:
            pass

        class ShiftedMean(ConstantMean):
            pass

        exact, stats = golden_models()["exact"]
        exact.mean_fn = ShiftedMean(1.0)
        path = tmp_path / "m.bin"
        for model, name in ((UnknownModel(), "UnknownModel"), (exact, "ShiftedMean")):
            with pytest.raises(TypeError, match=f"cannot serialize .*{name}"):
                modelio.save_model(path, "tomita", model, stats)
            assert not path.exists()


# a section edit: drop a row or a column, ravel, add an axis, or poison one entry
SECTION_EDITS = ("drop_row", "drop_column", "ravel", "add_axis", "poison")
POISONS = (np.nan, np.inf, 0.0, -1.0)


def _numeric(value) -> bool:
    return isinstance(value, (int, float, np.ndarray)) and not isinstance(value, bool)


def _edit(value, edit: str, where: int, bad: float):
    if edit == "poison":
        return float(bad) if np.ndim(value) == 0 else _poison(value, where % value.size, bad)
    if edit == "ravel":
        return np.ravel(value)
    if edit == "add_axis":
        return np.asarray(value)[None]
    arr = np.atleast_1d(value)
    axis = 1 if edit == "drop_column" and arr.ndim > 1 else 0
    return np.delete(arr, where % arr.shape[axis], axis=axis)


class TestPayloadFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_edited_section_raises_only_toolkit_errors(self, method_payloads, data):
        method_id = data.draw(st.sampled_from(sorted(method_payloads)))
        payload = dict(method_payloads[method_id])
        key = data.draw(st.sampled_from(sorted(k for k, v in payload.items() if _numeric(v))))
        edit = data.draw(st.sampled_from(SECTION_EDITS))
        where = data.draw(st.integers(0, 10**6))
        payload[key] = _edit(payload[key], edit, where, data.draw(st.sampled_from(POISONS)))
        points = small_scene().truth.cell_centers()[::9]
        try:
            _, model, stats = modelio.model_from_payload(payload)
            two_stage.predict_terrain(model, stats, points)
        except TerraGpError:
            pass
