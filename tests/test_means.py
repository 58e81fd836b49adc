import numpy as np
import pytest

from terragp.datasets import NormStats, grid_to_dataset
from terragp.grids import make_grid
from terragp.means import ConstantMean, GridInterpMean, ZeroMean


class TestBasicMeans:
    def test_zero(self, rng):
        assert np.all(ZeroMean()(rng.normal(size=(5, 2))) == 0.0)

    def test_constant(self, rng):
        m = ConstantMean(2.5, learnable=True)
        np.testing.assert_array_equal(m(rng.normal(size=(4, 2))), 2.5)
        assert m.learnable


class TestGridPrior:
    def test_returns_normalized_targets(self):
        # a prior grid whose values equal the dataset's own elevations
        # must evaluate to the normalized Y at the cell centers
        g = make_grid(np.array([[10.0, 20.0], [30.0, 40.0]]), cellsize=2.0)
        ds = grid_to_dataset(g)
        prior = GridInterpMean(g, ds.stats)
        np.testing.assert_allclose(prior(ds.X), ds.Y, atol=1e-12)

    def test_identity_stats_pass_through(self):
        g = make_grid(np.array([[1.0, 2.0], [3.0, 4.0]]))
        stats = NormStats(np.zeros(2), np.ones(2), 0.0, 1.0)
        prior = GridInterpMean(g, stats)
        # midpoint of the four cell centers
        assert prior(np.array([[1.0, 1.0]]))[0] == pytest.approx(2.5)

    def test_extrapolation_clamps(self):
        g = make_grid(np.array([[1.0, 2.0], [3.0, 4.0]]))
        stats = NormStats(np.zeros(2), np.ones(2), 0.0, 1.0)
        prior = GridInterpMean(g, stats)
        assert prior(np.array([[-50.0, -50.0]]))[0] == pytest.approx(3.0)
