from dataclasses import fields, replace

import numpy as np
import pytest

from terragp import exact_gp, kernels, linalg, modelio, pipeline, svgp, two_stage
from terragp.datasets import grid_to_dataset
from terragp.errors import InvalidInputError
from terragp.grids import make_grid
from terragp.means import GridInterpMean
from terragp.methods import NOISE_GP, method_defaults, with_overrides
from terragp.synth import SynthParams


def grid_points(n):
    side = np.linspace(-1.5, 1.5, n)
    xx, yy = np.meshgrid(side, side)
    return np.column_stack([xx.ravel(), yy.ravel()])


class TestFitNoiseGp:
    def test_constant_field_recovered(self, rng):
        X = grid_points(12)
        R = np.full(X.shape[0], 0.37)
        nm = two_stage.fit_noise_gp(X, R, seed=0)
        mu = nm.log_var_mean(X)
        np.testing.assert_allclose(mu, np.log(0.37), atol=0.05)

    def test_smooth_sinusoid_correlation(self, rng):
        X = grid_points(32)
        true_log_var = 1.2 * np.sin(2.0 * X[:, 0]) * np.cos(1.5 * X[:, 1]) - 3.0
        R = np.exp(true_log_var)
        nm = two_stage.fit_noise_gp(X, R, seed=0)
        mu = nm.log_var_mean(X)
        corr = np.corrcoef(mu, true_log_var)[0, 1]
        assert corr > 0.9

    def test_single_sample(self):
        nm = two_stage.fit_noise_gp(np.array([[0.0, 0.0]]), np.array([0.5]), seed=0)
        mu = nm.log_var_mean(np.array([[0.0, 0.0], [50.0, 50.0]]))
        assert np.all(np.isfinite(mu))
        assert mu[0] == pytest.approx(np.log(0.5), abs=0.3)

    def test_nonpositive_variance_names_index(self):
        X = grid_points(3)
        R = np.ones(9)
        R[4] = 0.0
        with pytest.raises(InvalidInputError, match=r"r\[4\]"):
            two_stage.fit_noise_gp(X, R, seed=0)

    def test_infinite_variance_names_index(self):
        # a finite variance over a near-flat terrain can overflow to +inf
        # when normalized by std(Y)^2
        R = np.ones(9)
        R[5] = np.inf
        with pytest.raises(InvalidInputError, match=r"r\[5\] = inf"):
            two_stage.fit_noise_gp(grid_points(3), R, seed=0)

    def test_clamped_extrapolation(self, rng):
        X = grid_points(6)
        R = np.exp(rng.normal(size=36) * 2 - 4)
        nm = two_stage.fit_noise_gp(X, R, seed=0)
        far = np.array([[1e6, -1e6]])
        assert np.isfinite(nm.log_var_mean(far))[0]
        assert np.exp(nm.log_var_mean(far))[0] > 0

    def test_large_n_switches_to_sparse_stage_one(self, monkeypatch):
        monkeypatch.setattr(two_stage, "STAGE1_EXACT_MAX_N", 50)
        X = grid_points(10)  # n = 100 > 50
        true_log_var = 0.8 * np.sin(X[:, 0]) - 3.0
        nm = two_stage.fit_noise_gp(X, np.exp(true_log_var), seed=0)
        assert not isinstance(nm.gp, exact_gp.ExactGpModel)
        mu = nm.log_var_mean(X)
        assert np.corrcoef(mu, true_log_var)[0, 1] > 0.8

    def test_sparse_stage_one_field_is_clipped_qf_mean(self, monkeypatch):
        monkeypatch.setattr(two_stage, "STAGE1_EXACT_MAX_N", 50)
        X = grid_points(10)
        nm = two_stage.fit_noise_gp(X, np.exp(0.8 * np.sin(X[:, 0]) - 3.0), seed=0)
        far = np.vstack([X, [[1e6, -1e6]]])
        clamp = two_stage.LOG_VAR_CLAMP
        expected = np.clip(svgp.predictive_qf(nm.gp, far)[0], -clamp, clamp)
        assert nm.log_var_mean(far).tobytes() == expected.tobytes()

    def test_holed_grid_stage_one_takes_no_dense_factor(self, monkeypatch):
        """Stage 1 of the inducing sweep at n = 1536 (1536 of the 1600
        cells of a 40 x 40 train grid) trains and builds on the holed grid
        branch: its only factors are the 64 x 64 Schur matrices of the
        missing cells, and it keeps no Cholesky factor."""
        data, _ = pipeline._sweep_dataset(1536, seed=101)
        calls = []
        real = exact_gp.chol_with_jitter
        monkeypatch.setattr(exact_gp, "chol_with_jitter", lambda mat: calls.append(mat) or real(mat))
        nm = two_stage.fit_noise_gp(data.X, data.R, config=replace(NOISE_GP, epochs=2), seed=101)
        assert [mat.shape[0] for mat in calls] == [64] * 3  # two epochs and the build
        assert nm.gp.chol is None and nm.gp.alpha.shape == (1536,)

    @staticmethod
    def stage_one(monkeypatch, kind):
        """A stage 1 fitted on an 8 x 8 grid, exact or (below a lowered
        size limit) sparse with Z the 64 training points.  The exact one
        sees the grid's rows shuffled, so that it keeps a dense Cholesky
        factor (a complete grid in row order would have none) and the
        variance path it skips has triangular work to count."""
        X = grid_points(8)
        if kind == "sparse":
            monkeypatch.setattr(two_stage, "STAGE1_EXACT_MAX_N", 50)
        else:
            X = X[np.random.default_rng(0).permutation(X.shape[0])]
        nm = two_stage.fit_noise_gp(X, np.exp(0.5 * np.cos(X[:, 1]) - 2.0), seed=0)
        assert isinstance(nm.gp, exact_gp.ExactGpModel) == (kind == "exact")
        return nm

    @pytest.mark.parametrize("kind", ["exact", "sparse"])
    def test_noise_field_makes_no_triangular_solve(self, monkeypatch, kind):
        """Stage 2 reads only the stage-1 mean, so the field must not pay for
        the variance work over the query columns: neither a triangular
        solve of them nor the inverse and in-place product the variance
        is formed by.  The sparse mean solves one m-vector, c = Lz^-T mw,
        by `tri_solve`, whose scipy solve the counters see inside it."""
        nm = self.stage_one(monkeypatch, kind)
        calls = []

        def counting(name, original):
            def counted(*args, **kwargs):
                calls.append((name, np.ndim(args[1]) if len(args) > 1 else None))
                return original(*args, **kwargs)

            return counted

        for name in ("tri_solve", "tri_inverse", "tri_matmul", "solve_triangular"):
            wrapper = counting(name, getattr(linalg, name))
            for module in (linalg, exact_gp, svgp):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        v = nm.noise_variances(grid_points(13))
        assert v.shape == (169,) and np.all(v > 0)
        assert calls == ([] if kind == "exact" else [("tri_solve", 1), ("solve_triangular", 1)])
        # the counters see the variance path when it does run
        nm.gp.predict(grid_points(13))
        assert {"tri_inverse", "tri_matmul"} <= {name for name, _ in calls}

    @pytest.mark.parametrize("kind", ["exact", "sparse"])
    def test_noise_field_on_a_raster_builds_no_dense_gram(self, monkeypatch, kind):
        """On a complete query grid the RBF stage-1 mean takes two axis
        factors, (nx + ny) c kernel entries for the c centres, instead of
        the q x c Gram; the sparse GP adds the m x m Kzz its mean weights
        are solved through."""
        nm = self.stage_one(monkeypatch, kind)
        c = 64
        entries = []
        original = kernels.gram

        def counted(*args, **kwargs):
            K = original(*args, **kwargs)
            entries.append(K.size)
            return K

        monkeypatch.setattr(kernels, "gram", counted)
        v = nm.noise_variances(grid_points(40))
        assert v.shape == (1600,) and np.all(v > 0)
        kzz = 0 if kind == "exact" else c * c
        assert 0 < sum(entries) <= (40 + 40) * c + kzz


class TestTwoStage:
    def scene(self, seed=0, size=32):
        params = SynthParams(size=size, seed=seed)
        return pipeline.make_scene(params, noise_mode="split")

    def test_noise_vector_matches_frozen_posterior(self):
        scene = self.scene()
        data = grid_to_dataset(scene.train, scene.uncertainty)
        method = with_overrides(method_defaults("ours-exact"), epochs=4)
        mean_fn = GridInterpMean(scene.prior, data.stats)
        model = two_stage.fit_two_stage(data, method, seed=0, mean_fn=mean_fn)
        recomputed = np.exp(model.noise.log_var_mean(data.X))
        np.testing.assert_allclose(model.terrain.noise_var, recomputed, atol=1e-12)

    def test_noise_model_frozen_through_stage_two(self):
        scene = self.scene()
        data = grid_to_dataset(scene.train, scene.uncertainty)
        nm = two_stage.fit_noise_gp(data.X, data.R, seed=0)

        def noise_bytes():
            payload = modelio.model_payload("noise", nm.gp, data.stats)
            return modelio.payload_to_bytes(payload)

        before = noise_bytes()
        method = with_overrides(method_defaults("ours-exact"), epochs=3)
        mean_fn = GridInterpMean(scene.prior, data.stats)
        two_stage.fit_terrain(data, nm, method, seed=0, mean_fn=mean_fn)
        assert noise_bytes() == before

    def test_homoscedastic_collapse(self):
        # constant uncertainty: the two-stage fit must match a matched
        # fixed-noise baseline almost exactly
        scene = self.scene()
        const_var = scene.uncertainty.with_values(
            np.full_like(scene.uncertainty.values, 0.25)
        )
        data = grid_to_dataset(scene.train, const_var)
        mean_fn = GridInterpMean(scene.prior, data.stats)
        ours = two_stage.fit_two_stage(
            data, method_defaults("ours-exact"), seed=0, mean_fn=mean_fn
        )
        baseline_method = with_overrides(
            method_defaults("ours-exact"),
            heteroscedastic=False,
            fixed_noise_var=float(data.stats.normalize_var(0.25)),
        )
        baseline = exact_gp.fit_exact(
            data, baseline_method, seed=0,
            mean_fn=GridInterpMean(scene.prior, data.stats),
        )
        Xq = data.X[::3]
        m1, v1 = exact_gp.predict_exact(ours.terrain, Xq)
        m2, v2 = exact_gp.predict_exact(baseline, Xq)
        rmse_norm = float(np.sqrt(np.mean((m1 - m2) ** 2)))
        assert rmse_norm < 1e-4
        np.testing.assert_allclose(v1, v2, atol=1e-4)

    def test_split_noise_latent_variance_ordering(self):
        scene = self.scene(size=32)
        data = grid_to_dataset(scene.train, scene.uncertainty)
        mean_fn = GridInterpMean(scene.prior, data.stats)
        model = two_stage.fit_two_stage(
            data, method_defaults("ours-exact"), seed=0, mean_fn=mean_fn
        )
        pts = scene.train.cell_centers()
        _, latent, pred = two_stage.predict_terrain(model, data.stats, pts)
        cols = scene.train.ncols
        half = (pts[:, 0] - scene.train.xllcorner) > cols * scene.train.cellsize / 2
        assert latent[half].mean() > latent[~half].mean()
        assert pred[half].mean() / pred[~half].mean() > 2.0

    def test_predictive_variance_decomposition(self):
        scene = self.scene()
        data = grid_to_dataset(scene.train, scene.uncertainty)
        mean_fn = GridInterpMean(scene.prior, data.stats)
        method = with_overrides(method_defaults("ours-exact"), epochs=5)
        model = two_stage.fit_two_stage(data, method, seed=0, mean_fn=mean_fn)
        pts = scene.truth.cell_centers()[::7]
        mean, latent, pred = two_stage.predict_terrain(model, data.stats, pts)
        noise = data.stats.denormalize_var(
            np.exp(model.noise.log_var_mean(data.stats.normalize_points(pts)))
        )
        np.testing.assert_allclose(pred, latent + noise, rtol=1e-9)
        assert np.all(pred >= latent)

    def test_far_field_reverts_to_prior_plus_noise(self):
        scene = self.scene()
        data = grid_to_dataset(scene.train, scene.uncertainty)
        mean_fn = GridInterpMean(scene.prior, data.stats)
        method = with_overrides(method_defaults("ours-exact"), epochs=5)
        model = two_stage.fit_two_stage(data, method, seed=0, mean_fn=mean_fn)
        far = np.array([[1e5, 1e5]])
        _, latent, pred = two_stage.predict_terrain(model, data.stats, far)
        sigma_s2 = model.terrain.kernel.outputscale * data.stats.y_std**2
        assert latent[0] == pytest.approx(sigma_s2, rel=1e-6)
        noise_far = data.stats.denormalize_var(
            np.exp(model.noise.log_var_mean(data.stats.normalize_points(far)))
        )[0]
        assert pred[0] == pytest.approx(sigma_s2 + noise_far, rel=1e-6)

    def test_variational_variant_runs(self):
        scene = self.scene()
        data = grid_to_dataset(scene.train, scene.uncertainty)
        mean_fn = GridInterpMean(scene.prior, data.stats)
        method = with_overrides(
            method_defaults("ours-variational"), epochs=3, num_inducing=32,
            batch_size=64,
        )
        model = two_stage.fit_two_stage(data, method, seed=0, mean_fn=mean_fn)
        assert isinstance(model.terrain, svgp.SvgpState)
        mean, latent, pred = two_stage.predict_terrain(
            model, data.stats, scene.train.cell_centers()[:10]
        )
        assert np.all(np.isfinite(mean)) and np.all(pred >= latent)

    def test_model_is_its_two_gps(self):
        """A two-stage model holds only its two GPs: `fit_method` returns
        the terrain GP's history, the stage-1 history stays on the noise
        GP, and `predict_grid` maps are `predict_terrain`'s at the grid's
        cell centers."""
        assert [f.name for f in fields(two_stage.TwoStageModel)] == ["noise", "terrain"]
        scene = self.scene(size=16)
        method = with_overrides(method_defaults("ours-exact"), epochs=3)
        model, stats, history = pipeline.fit_method(
            method, scene.train, scene.uncertainty, scene.prior, seed=0
        )
        assert history == model.terrain.loss_history and len(history) == 3
        assert len(model.noise.gp.loss_history) == NOISE_GP.epochs
        grids = pipeline.predict_grid(model, stats, scene.truth)
        maps = two_stage.predict_terrain(model, stats, scene.truth.cell_centers())
        for grid, values in zip(grids, maps, strict=True):
            assert grid.values.tobytes() == values.reshape(grid.values.shape).tobytes()

    def test_requires_variance_samples(self, rng):
        g = make_grid(rng.normal(size=(6, 6)))
        data = grid_to_dataset(g)
        with pytest.raises(InvalidInputError):
            two_stage.fit_two_stage(data, method_defaults("ours-exact"), seed=0)


class TestRoundingSensitivity:
    """A 1e-14 relative change to one input grid moves the maps by a like
    amount.  Training the inducing locations or the stage-1 mean, whose
    gradients on these scenes are rounding noise, moves them by up to
    percents.  With Kzz floored, the variational drifts were 6e-12
    (ours-variational) and 1e-12 (torroba) here, and at most 2e-11 on
    scene seeds 1 to 4; unfloored, ours-variational reached 1.3e-9."""

    @staticmethod
    def drift(method, scene, seed, perturbed):
        """max |Δ| / max |ref| over the `predict_grid` mean and latent maps
        when the `perturbed` grid is scaled by 1 + 1e-14."""
        grids = {"train": scene.train, "uncertainty": scene.uncertainty}

        def maps(g):
            model, stats, _ = pipeline.fit_method(
                method, g["train"], g["uncertainty"], scene.prior, seed=seed
            )
            mean, latent, _ = pipeline.predict_grid(model, stats, scene.truth)
            return mean.values, latent.values

        scaled = grids[perturbed].values * (1.0 + 1e-14)
        ref = maps(grids)
        alt = maps({**grids, perturbed: grids[perturbed].with_values(scaled)})
        return max(np.max(np.abs(a - r)) / np.max(np.abs(r)) for r, a in zip(ref, alt))

    @pytest.mark.parametrize(
        "method_id, size, seed, perturbed, overrides, bound",
        [
            ("ours-variational", 64, 0, "uncertainty", dict(num_inducing=128, epochs=5), 1e-9),
            ("torroba", 64, 0, "train", dict(num_inducing=256, epochs=15), 1e-9),
            ("ours-exact", 32, 0, "uncertainty", dict(epochs=20), 1e-10),
            ("ours-exact", 32, 1, "uncertainty", dict(epochs=20), 1e-10),
        ],
        ids=["ours-variational", "torroba", "ours-exact-seed0", "ours-exact-seed1"],
    )
    def test_maps_follow_a_rounding_level_input_change(
        self, method_id, size, seed, perturbed, overrides, bound
    ):
        scene = pipeline.make_scene(SynthParams(size=size, seed=seed), noise_mode="split")
        method = with_overrides(method_defaults(method_id), **overrides)
        assert self.drift(method, scene, seed, perturbed) < bound
