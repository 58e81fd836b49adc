import numpy as np
import pytest

from terragp.errors import InvalidConfigError
from terragp.synth import SynthParams, split_variance_grid, synth_terrain
from terragp.grids import make_grid


class TestSynthTerrain:
    def test_flat_when_no_features(self):
        params = SynthParams(size=16, amplitude=0.0, crater_count=0, seed=3)
        g = synth_terrain(params)
        np.testing.assert_array_equal(g.values, np.zeros((16, 16)))

    def test_deterministic(self):
        params = SynthParams(size=32, seed=7)
        a = synth_terrain(params)
        b = synth_terrain(params)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = synth_terrain(SynthParams(size=32, seed=1))
        b = synth_terrain(SynthParams(size=32, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_no_nodata_cells(self):
        g = synth_terrain(SynthParams(size=32, seed=0))
        assert g.data_mask().all()

    def test_centered_crater_shape(self):
        params = SynthParams(
            size=64, amplitude=0.0, crater_count=1, craters=((32.0, 32.0, 10.0),), seed=0
        )
        g = synth_terrain(params)
        vals = g.values
        # minimum within one cell of the center
        imin, jmin = np.unravel_index(vals.argmin(), vals.shape)
        assert abs(imin + 0.5 - 32.0) <= 1.0 and abs(jmin + 0.5 - 32.0) <= 1.0
        # raised rim: annulus near the crater radius sits above the far field
        jj, ii = np.meshgrid(np.arange(64) + 0.5, np.arange(64) + 0.5)
        rho = np.hypot(jj - 32.0, ii - 32.0)
        rim_band = (rho >= 9.0) & (rho <= 11.0)
        outside = rho > 18.0
        assert vals[rim_band].mean() > vals[outside].mean()

    def test_amplitude_scales_rms(self):
        lo = synth_terrain(SynthParams(size=64, amplitude=1.0, crater_count=0, seed=5))
        hi = synth_terrain(SynthParams(size=64, amplitude=3.0, crater_count=0, seed=5))
        np.testing.assert_allclose(hi.values, 3.0 * lo.values, atol=1e-12)
        assert lo.values.std() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            SynthParams(size=1)
        with pytest.raises(InvalidConfigError):
            SynthParams(sun_elevation=0.0)
        with pytest.raises(InvalidConfigError):
            SynthParams(size=16, radius_min=10.0, radius_max=9.0)
        with pytest.raises(InvalidConfigError):
            SynthParams(size=16, radius_max=20.0)
        with pytest.raises(InvalidConfigError):
            SynthParams(var_lit=0.5, var_dark=0.1)

    @pytest.mark.parametrize("field", [
        "amplitude", "roughness", "radius_min", "radius_max", "rim_fraction",
        "sun_azimuth", "sun_elevation", "var_dark", "var_lit", "cellsize",
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, field, bad):
        with pytest.raises(InvalidConfigError, match=f"{field} must be finite"):
            SynthParams(**{field: bad})


class TestSplitVariance:
    def test_halves(self):
        like = make_grid(np.zeros((4, 6)))
        v = split_variance_grid(like, 0.1, 1.0)
        np.testing.assert_allclose(v.values[:, :3], 0.1)
        np.testing.assert_allclose(v.values[:, 3:], 1.0)

    def test_negative_rejected(self):
        like = make_grid(np.zeros((2, 2)))
        with pytest.raises(InvalidConfigError):
            split_variance_grid(like, -0.1, 1.0)

    @pytest.mark.parametrize("quiet, noisy", [(0.1, np.nan), (np.inf, 1.0)])
    def test_non_finite_rejected(self, quiet, noisy):
        like = make_grid(np.zeros((2, 2)))
        with pytest.raises(InvalidConfigError, match="finite"):
            split_variance_grid(like, quiet, noisy)
