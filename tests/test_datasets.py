import warnings

import numpy as np
import pytest

from terragp.datasets import from_arrays, grid_axes, grid_to_dataset
from terragp.errors import EmptyDatasetError, InvalidInputError
from terragp.grids import make_grid


class TestNormalization:
    def test_zero_mean_unit_std(self, rng):
        X = rng.normal(size=(200, 2)) * np.array([5.0, 0.2]) + np.array([10.0, -3.0])
        Y = rng.normal(size=200) * 7.0 + 100.0
        ds = from_arrays(X, Y)
        np.testing.assert_allclose(ds.X.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(ds.X.std(axis=0), 1.0, atol=1e-9)
        assert abs(ds.Y.mean()) < 1e-9
        assert abs(ds.Y.std() - 1.0) < 1e-9

    def test_roundtrip_exact(self, rng):
        X = rng.normal(size=(50, 2)) * 3 + 4
        Y = rng.normal(size=50) * 2 + 9
        ds = from_arrays(X, Y)
        np.testing.assert_allclose(ds.stats.denormalize_y(ds.Y), Y, atol=1e-12)
        np.testing.assert_allclose(ds.stats.denormalize_points(ds.X), X, atol=1e-12)

    def test_variance_scaled_by_y_std_squared(self, rng):
        X = rng.normal(size=(30, 2))
        Y = rng.normal(size=30) * 4.0
        R = np.full(30, 2.0)
        ds = from_arrays(X, Y, R)
        np.testing.assert_allclose(ds.R, 2.0 / Y.std() ** 2, atol=1e-12)
        np.testing.assert_allclose(ds.stats.denormalize_var(ds.R), R, atol=1e-12)

    def test_flat_targets_keep_unit_scale(self):
        ds = from_arrays(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([5.0, 5.0]))
        assert ds.stats.y_std == 1.0
        np.testing.assert_allclose(ds.Y, 0.0)

    @pytest.mark.parametrize(
        "x_scale, x_shift, y_scale, what",
        [
            (1e300, 0.0, 1.0, "x standard deviation"),
            (1.0, 1.5e308, 1.0, "x mean"),
            (1.0, 0.0, 1e200, "y standard deviation"),
        ],
        ids=["x-spread", "x-mean", "y-spread"],
    )
    def test_finite_values_too_large_to_normalize_are_refused(
        self, rng, x_scale, x_shift, y_scale, what
    ):
        # the sums and squares overflow; no RuntimeWarning may escape
        X = rng.uniform(0.5, 1.0, size=(64, 2)) * x_scale + x_shift
        Y = rng.normal(size=64) * y_scale
        assert np.all(np.isfinite(X)) and np.all(np.isfinite(Y))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError, match=f"{what} is not finite"):
                from_arrays(X, Y)


class TestGridToDataset:
    def test_two_by_two_centers(self):
        g = make_grid(np.array([[1.0, 2.0], [3.0, 4.0]]), cellsize=2.0)
        ds = grid_to_dataset(g)
        assert ds.n == 4
        np.testing.assert_allclose(
            ds.stats.denormalize_points(ds.X),
            [[1.0, 3.0], [3.0, 3.0], [1.0, 1.0], [3.0, 1.0]],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            ds.stats.denormalize_y(ds.Y), [1.0, 2.0, 3.0, 4.0], atol=1e-12
        )

    def test_nodata_cells_skipped(self):
        g = make_grid(np.array([[1.0, -9999.0], [3.0, 4.0]]))
        ds = grid_to_dataset(g)
        assert ds.n == 3

    def test_all_nodata_rejected(self):
        g = make_grid(np.full((2, 2), -9999.0))
        with pytest.raises(EmptyDatasetError):
            grid_to_dataset(g)

    def test_variance_grid_shape_checked(self):
        g = make_grid(np.ones((2, 2)))
        v = make_grid(np.ones((3, 2)))
        with pytest.raises(InvalidInputError):
            grid_to_dataset(g, v)

    def test_variance_mask_follows_dem(self):
        g = make_grid(np.array([[1.0, -9999.0], [3.0, 4.0]]))
        v = make_grid(np.full((2, 2), 0.5))
        ds = grid_to_dataset(g, v)
        assert ds.R.shape == (3,)



class TestGridAxes:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (5, 3)])
    def test_complete_grid_yields_its_axes(self, rng, shape):
        ds = grid_to_dataset(make_grid(rng.normal(size=shape), xllcorner=3.0, cellsize=0.5))
        xs, ys = grid_axes(ds.X)
        assert (ys.size, xs.size) == shape
        xx, yy = np.meshgrid(xs, ys)
        assert np.array_equal(ds.X, np.column_stack([xx.ravel(), yy.ravel()]))

    def test_other_point_sets_are_not_grids(self, rng):
        values = rng.normal(size=(4, 5))
        X = grid_to_dataset(make_grid(values)).X
        values[2, 3] = -9999.0
        assert grid_axes(grid_to_dataset(make_grid(values)).X) is None  # a nodata cell
        assert grid_axes(X[rng.permutation(X.shape[0])]) is None
        assert grid_axes(X[::-1]) is not None  # reversed axes are still a product
        moved = X.copy()
        moved[7, 0] = np.nextafter(moved[7, 0], np.inf)
        assert grid_axes(moved) is None
        assert grid_axes(X[:, :1]) is None
