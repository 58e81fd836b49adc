import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terragp.errors import DataFormatError, InvalidConfigError, InvalidInputError, TerraGpError
from terragp.grids import (
    DEFAULT_NODATA,
    DemGrid,
    bilinear_sample,
    downsample,
    hillshade,
    inject_noise,
    make_grid,
    read_asc,
    shadow_uncertainty,
    to_pgm_bytes,
    write_asc,
)


def roundtrip(dem, tmp_path, name="g.asc"):
    path = tmp_path / name
    write_asc(dem, path)
    return read_asc(path)


class TestAscIO:
    def test_minimal_roundtrip(self, tmp_path):
        g = make_grid([[1.2345678901234567]], xllcorner=-3.25, yllcorner=10.5, cellsize=0.5)
        g2 = roundtrip(g, tmp_path)
        assert g2.ncols == 1 and g2.nrows == 1
        assert g2.xllcorner == g.xllcorner
        assert g2.yllcorner == g.yllcorner
        assert g2.cellsize == g.cellsize
        np.testing.assert_array_equal(g2.values, g.values)

    def test_full_precision_roundtrip(self, tmp_path, rng):
        vals = rng.normal(size=(7, 5)) * 1e3
        g = make_grid(vals, cellsize=1.3)
        g2 = roundtrip(g, tmp_path)
        np.testing.assert_array_equal(g2.values, g.values)

    def test_nodata_preserved(self, tmp_path):
        g = make_grid([[1.0, -9999.0], [3.0, 4.0]])
        g2 = roundtrip(g, tmp_path)
        assert g2.values[0, 1] == -9999.0
        np.testing.assert_array_equal(g2.data_mask(), [[True, False], [True, True]])

    def test_count_mismatch_names_counts(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text(
            "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
            "NODATA_VALUE -9999\n1 2 3\n"
        )
        with pytest.raises(DataFormatError, match="expected 4 values.*found 3"):
            read_asc(path)

    @pytest.mark.parametrize("token", ["oops", "nan", "inf"])
    def test_bad_token_names_line(self, tmp_path, token):
        path = tmp_path / "bad.asc"
        path.write_text(
            "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
            f"NODATA_VALUE -9999\n1 2\n3 {token}\n"
        )
        with pytest.raises(DataFormatError, match="line 8"):
            read_asc(path)

    @pytest.mark.parametrize("key, value", [
        ("CELLSIZE", "-1"), ("CELLSIZE", "0"), ("CELLSIZE", "nan"), ("CELLSIZE", "inf"),
        ("XLLCORNER", "nan"), ("YLLCORNER", "-inf"), ("NODATA_VALUE", "nan"),
        ("NCOLS", "0"), ("NROWS", "0"), ("NCOLS", "2.7"), ("NROWS", "nan"), ("NCOLS", "inf"),
    ])
    def test_bad_header_value_is_format_error(self, tmp_path, key, value):
        # the cell count matches what int() makes of the dimensions, so only
        # the header value itself is wrong
        header = {"NCOLS": "2", "NROWS": "2", "XLLCORNER": "0", "YLLCORNER": "0",
                  "CELLSIZE": "1", "NODATA_VALUE": "-9999", key: value}
        path = tmp_path / "bad.asc"
        cells = "" if value == "0" and key in ("NCOLS", "NROWS") else "1 2\n3 4\n"
        path.write_text("".join(f"{k} {v}\n" for k, v in header.items()) + cells)
        with pytest.raises(DataFormatError, match="bad.asc"):
            read_asc(path)

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text("NCOLS 1\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nNODATA_VALUE -1\n1\n")
        with pytest.raises(DataFormatError, match="cellsize"):
            read_asc(path)

    def test_nodata_value_is_optional(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n5 -9999\n")
        g = read_asc(path)
        assert g.nodata == DEFAULT_NODATA
        np.testing.assert_array_equal(g.data_mask(), [[True, False]])

    def test_center_header_matches_corner_twin(self, tmp_path, rng):
        g = make_grid(rng.normal(size=(3, 4)), xllcorner=10.0, yllcorner=-4.0, cellsize=2.5)
        corner = tmp_path / "corner.asc"
        write_asc(g, corner)
        lines = corner.read_text().splitlines()
        lines[2:4] = ["XLLCENTER 11.25", "YLLCENTER -2.75"]
        center = tmp_path / "center.asc"
        center.write_text("\n".join(lines) + "\n")
        g2 = read_asc(center)
        np.testing.assert_array_equal(g2.cell_centers(), read_asc(corner).cell_centers())
        np.testing.assert_array_equal(g2.values, g.values)

    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_corner_and_center_for_one_axis_is_format_error(self, tmp_path, axis):
        path = tmp_path / "bad.asc"
        path.write_text(
            f"NCOLS 1\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\n{axis}LLCENTER 0.5\nCELLSIZE 1\n1\n"
        )
        with pytest.raises(DataFormatError, match=f"{axis}LLCORNER and {axis}LLCENTER"):
            read_asc(path)

    def test_repeated_header_key_is_format_error(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text("NCOLS 1\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\nNCOLS 1\n1\n")
        with pytest.raises(DataFormatError, match="line 6"):
            read_asc(path)

    def test_case_insensitive_header(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 1\nnrows 1\nxllcorner 2\nyllcorner 3\ncellsize 4\nnodata_value -1\n9\n"
        )
        g = read_asc(path)
        assert g.cellsize == 4.0 and g.values[0, 0] == 9.0


# .asc text from a valid header edited a few times (a line set, inserted
# or dropped) and rows of cell tokens: keys in either case, unknown and
# ESRI-style keys, malformed lines, and numbers, non-finite spellings and
# junk as values and tokens
_KEYS = st.sampled_from([
    "NCOLS", "nrows", "XLLCORNER", "yllcorner", "XLLCENTER", "yllcenter", "CELLSIZE",
    "NODATA_value", "BYTEORDER", "ncol", "",
])
_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "-1", "0.5", "1e20", "1e400", "-1e400", "nan", "inf",
                     "-Infinity", "-9999", "1_0", "0x10", "abc", "1,5", "\u00bd", "\x00"]),
    st.integers(-3, 6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_VALID_HEADER = ["NCOLS 3", "NROWS 2", "XLLCORNER 0", "YLLCORNER 0", "CELLSIZE 1.5"]
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_CELLS = st.one_of(
    st.lists(_FINITE, min_size=6, max_size=6),  # what the unedited header asks for
    st.lists(_FINITE, max_size=12),
    st.lists(_TOKENS, max_size=12),
)


@st.composite
def _headers(draw):
    lines = list(_VALID_HEADER)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        line = " ".join([draw(_KEYS), *draw(st.lists(_TOKENS, min_size=1, max_size=2))])
        edit = draw(st.sampled_from(["set", "insert", "drop"]))
        if edit == "insert" or at == len(lines):
            lines.insert(at, line)
        elif edit == "set":
            lines[at] = line
        else:
            del lines[at]
    return lines


@pytest.fixture(scope="class")
def asc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("asc") / "g.asc"


class TestAscFuzz:
    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(
        header=_headers(),
        cells=_CELLS,
        width=st.integers(1, 6),
    )
    def test_any_text_reads_or_is_a_data_error(self, asc_path, header, cells, width):
        rows = [" ".join(cells[i:i + width]) for i in range(0, len(cells), width)]
        asc_path.write_text("\n".join(header + rows) + "\n", encoding="utf-8")
        try:
            dem = read_asc(asc_path)
        except TerraGpError as exc:
            assert exc.exit_code == 3, exc
            return
        assert dem.values.shape == (dem.nrows, dem.ncols)
        assert np.all(np.isfinite(dem.values))
        assert len(cells) == dem.ncols * dem.nrows

    @pytest.mark.parametrize("raw", [b"NCOLS 1\xff\n", b"\xfe\xff\x00N", b"NCOLS 1\nNROWS 1\n\x80"])
    def test_undecodable_bytes_are_data_errors(self, tmp_path, raw):
        path = tmp_path / "g.asc"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError):
            read_asc(path)


class TestGeometry:
    def test_cell_centers_row_major_north_first(self):
        g = make_grid(np.zeros((2, 2)), xllcorner=0, yllcorner=0, cellsize=1)
        centers = g.cell_centers()
        np.testing.assert_allclose(
            centers, [[0.5, 1.5], [1.5, 1.5], [0.5, 0.5], [1.5, 0.5]]
        )

    def test_io_roundtrip_preserves_centers(self, tmp_path, rng):
        g = make_grid(rng.normal(size=(4, 6)), xllcorner=123.456, yllcorner=-7.89, cellsize=2.5)
        g2 = roundtrip(g, tmp_path)
        np.testing.assert_allclose(g.cell_centers(), g2.cell_centers(), atol=1e-9)


    @pytest.mark.parametrize("field", ["xllcorner", "yllcorner", "cellsize"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_geometry_rejected(self, field, bad):
        with pytest.raises(InvalidConfigError, match="finite"):
            make_grid([[1.0]], **{field: bad})


    @pytest.mark.parametrize("corner", ["xllcorner", "yllcorner"])
    def test_overflowing_extent_rejected(self, corner):
        # finite corner and cellsize, but corner + 2 cells overflows
        with pytest.raises(InvalidConfigError, match="extent"):
            make_grid(np.zeros((2, 2)), cellsize=1e308, **{corner: 1e308})


class TestDownsample:
    def test_identity_factor(self):
        g = make_grid(np.arange(12.0).reshape(3, 4))
        g2 = downsample(g, 1)
        np.testing.assert_array_equal(g2.values, g.values)
        assert g2.cellsize == g.cellsize and g2.xllcorner == g.xllcorner

    def test_four_by_four_factor_two(self):
        vals = np.arange(16.0).reshape(4, 4)
        g2 = downsample(make_grid(vals), 2)
        np.testing.assert_array_equal(g2.values, [[0.0, 2.0], [8.0, 10.0]])

    def test_sampled_centers_unchanged(self):
        g = make_grid(np.arange(36.0).reshape(6, 6), xllcorner=10, yllcorner=20, cellsize=2)
        for factor in (2, 3, 5):
            g2 = downsample(g, factor)
            fine = g.cell_centers().reshape(6, 6, 2)
            coarse = g2.cell_centers().reshape(g2.nrows, g2.ncols, 2)
            np.testing.assert_allclose(
                coarse, fine[::factor, ::factor], atol=1e-9
            )

    def test_factor_too_large(self):
        g = make_grid(np.zeros((3, 3)))
        with pytest.raises(InvalidConfigError):
            downsample(g, 4)


class TestHillshade:
    def test_flat_overhead_sun(self):
        g = make_grid(np.zeros((4, 4)))
        s = hillshade(g, 0.0, 90.0)
        np.testing.assert_allclose(s.values, 1.0, atol=1e-12)

    def test_flat_thirty_degrees(self):
        g = make_grid(np.zeros((4, 4)))
        s = hillshade(g, 123.0, 30.0)
        np.testing.assert_allclose(s.values, 0.5, atol=1e-12)

    def test_steep_facing_away_clamps_to_zero(self):
        # terrain rising steeply eastward presents west-facing slopes;
        # a low sun in the east leaves them fully shadowed
        vals = np.tile(np.arange(5.0) * 10.0, (5, 1))
        s = hillshade(make_grid(vals), azimuth_deg=90.0, elevation_deg=5.0)
        assert s.values.min() == 0.0

    def test_values_in_unit_interval(self, rng):
        g = make_grid(rng.normal(size=(16, 16)) * 3)
        s = hillshade(g, 315.0, 20.0)
        assert s.values.min() >= 0.0 and s.values.max() <= 1.0

    def test_needs_2x2(self):
        with pytest.raises(InvalidConfigError):
            hillshade(make_grid(np.zeros((1, 3))), 0, 45)

    @pytest.mark.parametrize("azimuth, elevation", [
        (np.nan, 45.0), (np.inf, 45.0), (315.0, np.nan), (315.0, -np.inf),
    ])
    def test_non_finite_angle_rejected(self, azimuth, elevation):
        with pytest.raises(InvalidConfigError, match="finite"):
            hillshade(make_grid(np.zeros((3, 3))), azimuth, elevation)


class TestShadowUncertainty:
    def test_fully_lit(self):
        s = make_grid(np.ones((3, 3)))
        v = shadow_uncertainty(s, 0.9, 0.1)
        np.testing.assert_allclose(v.values, 0.1)

    def test_fully_dark(self):
        s = make_grid(np.zeros((3, 3)))
        v = shadow_uncertainty(s, 0.9, 0.1)
        np.testing.assert_allclose(v.values, 0.9)

    def test_midpoint(self):
        s = make_grid(np.full((2, 2), 0.5))
        v = shadow_uncertainty(s, 0.9, 0.1)
        np.testing.assert_allclose(v.values, 0.5)

    def test_monotone_and_bounded(self, rng):
        s = make_grid(rng.uniform(size=(10, 10)))
        v = shadow_uncertainty(s, 0.9, 0.1)
        assert np.all(v.values >= 0.1 - 1e-15) and np.all(v.values <= 0.9 + 1e-15)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(InvalidConfigError):
            shadow_uncertainty(make_grid(np.ones((2, 2))), 0.1, 0.9)


class TestInjectNoise:
    def test_zero_variance_identity(self, rng):
        g = make_grid(rng.normal(size=(8, 8)))
        out = inject_noise(g, g.with_values(np.zeros((8, 8))), seed=3)
        np.testing.assert_array_equal(out.values, g.values)

    def test_sample_variance_matches(self):
        n = 100
        g = make_grid(np.zeros((n, n)))
        v = 0.25
        out = inject_noise(g, g.with_values(np.full((n, n), v)), seed=0)
        sample_var = out.values.var()
        assert abs(sample_var - v) / v < 0.05

    def test_deterministic(self, rng):
        g = make_grid(rng.normal(size=(6, 6)))
        var = g.with_values(np.full((6, 6), 0.3))
        a = inject_noise(g, var, seed=11)
        b = inject_noise(g, var, seed=11)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_uncorrelated(self):
        n = 100
        g = make_grid(np.zeros((n, n)))
        var = g.with_values(np.ones((n, n)))
        a = inject_noise(g, var, seed=1).values.ravel()
        b = inject_noise(g, var, seed=2).values.ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_shape_mismatch(self):
        g = make_grid(np.zeros((3, 3)))
        with pytest.raises(InvalidInputError):
            inject_noise(g, make_grid(np.zeros((2, 3))), seed=0)

    def test_negative_variance(self):
        g = make_grid(np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            inject_noise(g, g.with_values(np.full((2, 2), -1.0)), seed=0)

    def test_nodata_cells_untouched(self):
        vals = np.array([[1.0, -9999.0], [2.0, 3.0]])
        g = make_grid(vals)
        out = inject_noise(g, g.with_values(np.ones((2, 2))), seed=0)
        assert out.values[0, 1] == -9999.0


class TestBilinearSample:
    def test_cell_center_exact(self):
        g = make_grid(np.arange(9.0).reshape(3, 3))
        centers = g.cell_centers()
        np.testing.assert_allclose(
            bilinear_sample(g, centers), g.values.ravel(), atol=1e-12
        )

    def test_midpoint_of_four_cells(self):
        g = make_grid(np.array([[1.0, 3.0], [5.0, 7.0]]))
        mid = np.array([[1.0, 1.0]])
        assert bilinear_sample(g, mid)[0] == pytest.approx(4.0)

    def test_constant_extrapolation(self):
        g = make_grid(np.array([[1.0, 2.0], [3.0, 4.0]]))
        far_west = bilinear_sample(g, np.array([[-100.0, 1.5]]))[0]
        assert far_west == pytest.approx(1.0)
        far_se = bilinear_sample(g, np.array([[100.0, -100.0]]))[0]
        assert far_se == pytest.approx(4.0)


class TestPgm:
    def test_two_pixel_ramp(self):
        g = make_grid(np.array([[0.0, 1.0]]))
        raw = to_pgm_bytes(g)
        header, pixels = raw.rsplit(b"\n", 1)
        assert header == b"P5\n2 1\n255"
        assert pixels == bytes([0, 255])

    def test_constant_grid_mid_gray(self):
        g = make_grid(np.full((2, 2), 5.0))
        raw = to_pgm_bytes(g)
        assert raw.endswith(bytes([128] * 4))

    def test_nodata_rendered_black(self):
        g = make_grid(np.array([[-9999.0, 1.0, 2.0]]))
        raw = to_pgm_bytes(g)
        assert raw.endswith(bytes([0, 0, 255]))

    def test_header_dims_match(self, rng):
        g = make_grid(rng.normal(size=(3, 7)))
        raw = to_pgm_bytes(g)
        assert raw.startswith(b"P5\n7 3\n255\n")
        assert len(raw.rsplit(b"\n", 1)[1]) == 21
