import numpy as np
import pytest

from terragp import exact_gp, kernels, linalg, modelio, pipeline, svgp, two_stage
from terragp.datasets import grid_to_dataset
from terragp.errors import InvalidInputError
from terragp.grids import make_grid
from terragp.means import GridInterpMean
from terragp.methods import method_defaults, with_overrides
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

    def test_exact_noise_field_makes_no_triangular_solve(self, monkeypatch):
        """Stage 2 reads only the stage-1 mean, so the exact field must
        not pay for the n^2 q variance solve."""
        X = grid_points(8)
        nm = two_stage.fit_noise_gp(X, np.exp(0.5 * np.cos(X[:, 1]) - 2.0), seed=0)
        assert isinstance(nm.gp, exact_gp.ExactGpModel)
        calls = []
        original = linalg.tri_solve

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (linalg, exact_gp, svgp):
            monkeypatch.setattr(module, "tri_solve", counted)
        v = nm.noise_variances(grid_points(13))
        assert v.shape == (169,) and np.all(v > 0)
        assert calls == []


    def test_exact_noise_field_on_a_raster_builds_no_dense_gram(self, monkeypatch):
        """On a complete query grid the RBF stage-1 mean takes two axis
        factors, (nx + ny) n kernel entries, instead of the q x n Gram."""
        X = grid_points(8)
        nm = two_stage.fit_noise_gp(X, np.exp(0.5 * np.cos(X[:, 1]) - 2.0), seed=0)
        entries = []
        original = kernels.gram

        def counted(*args, **kwargs):
            K = original(*args, **kwargs)
            entries.append(K.size)
            return K

        monkeypatch.setattr(kernels, "gram", counted)
        v = nm.noise_variances(grid_points(40))
        assert v.shape == (1600,) and np.all(v > 0)
        assert 0 < sum(entries) <= (40 + 40) * X.shape[0]


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
        _, latent, pred = two_stage.predict_terrain(model, pts)
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
        mean, latent, pred = two_stage.predict_terrain(model, pts)
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
        _, latent, pred = two_stage.predict_terrain(model, far)
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
        assert model.variational
        mean, latent, pred = two_stage.predict_terrain(
            model, scene.train.cell_centers()[:10]
        )
        assert np.all(np.isfinite(mean)) and np.all(pred >= latent)

    def test_requires_variance_samples(self, rng):
        g = make_grid(rng.normal(size=(6, 6)))
        data = grid_to_dataset(g)
        with pytest.raises(InvalidInputError):
            two_stage.fit_two_stage(data, method_defaults("ours-exact"), seed=0)


class TestRoundingSensitivity:
    """A 1e-14 relative change to one input grid moves the maps by a like
    amount.  Training the inducing locations or the stage-1 mean, whose
    gradients on these scenes are rounding noise, moves them by up to
    percents."""

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
            ("ours-variational", 64, 0, "uncertainty", dict(num_inducing=128, epochs=5), 1e-8),
            ("torroba", 64, 0, "train", dict(num_inducing=256, epochs=15), 1e-8),
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
