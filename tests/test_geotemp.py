import math

import numpy as np
import pytest

from shale_adsorb.geotemp import (
    EARTH_RADIUS_M,
    HeatFlowPoint,
    filter_heatflow,
    grid_to_csv,
    haversine_m,
    idw_interpolate,
    interpolate_grid,
    parse_heatflow,
)
from shale_adsorb.dataset import SampleParseError


def point(lon, lat, grad_t, depth=1000.0):
    return HeatFlowPoint(lon=lon, lat=lat, section_depth=depth, grad_t=grad_t)


class TestHeatFlowPoint:
    def test_coordinate_ranges_enforced(self):
        with pytest.raises(ValueError, match="longitude"):
            point(190.0, 0.0, 25.0)
        with pytest.raises(ValueError, match="latitude"):
            point(0.0, -91.0, 25.0)

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(ValueError, match="gradient"):
            point(0.0, 0.0, math.nan)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(105.0, 30.0, 105.0, 30.0) == 0.0

    def test_quarter_meridian(self):
        # pole to equator along a meridian is a quarter of a great circle
        expected = math.pi / 2.0 * EARTH_RADIUS_M
        assert haversine_m(0.0, 0.0, 0.0, 90.0) == pytest.approx(expected, rel=1e-12)

    def test_equator_degree_scaling(self):
        one = haversine_m(0.0, 0.0, 1.0, 0.0)
        three = haversine_m(0.0, 0.0, 3.0, 0.0)
        assert three == pytest.approx(3.0 * one, rel=1e-9)


class TestFilterHeatflow:
    def test_threshold_is_inclusive(self):
        points = [point(0, 0, 20, depth=d) for d in (100.0, 500.0, 900.0)]
        kept = filter_heatflow(points)
        assert [p.section_depth for p in kept] == [500.0, 900.0]

    def test_empty_input(self):
        assert filter_heatflow([]) == []

    def test_zero_threshold_keeps_all(self):
        points = [point(0, 0, 20, depth=d) for d in (100.0, 500.0)]
        assert filter_heatflow(points, min_depth=0.0) == points

    def test_idempotent(self):
        points = [point(0, 0, 20, depth=d) for d in (100.0, 400.0, 600.0, 2000.0)]
        once = filter_heatflow(points)
        assert filter_heatflow(once) == once


class TestIdwInterpolate:
    def test_exact_hit_returns_sample_value(self):
        samples = [point(105.0, 30.0, 27.3), point(106.0, 31.0, 18.0)]
        assert idw_interpolate(samples, 105.0, 30.0) == 27.3

    def test_two_equidistant_points_average(self):
        samples = [point(-0.5, 0.0, 10.0), point(0.5, 0.0, 30.0)]
        assert idw_interpolate(samples, 0.0, 0.0) == pytest.approx(20.0, rel=1e-12)

    def test_three_point_hand_weights(self):
        # samples along the equator at 1, 2 and 3 degrees from the query:
        # distances scale as 1:2:3, so the squared-inverse weights are
        # 1, 1/4 and 1/9
        samples = [point(1.0, 0.0, 24.0), point(2.0, 0.0, 30.0), point(3.0, 0.0, 12.0)]
        expected = (24.0 + 30.0 / 4 + 12.0 / 9) / (1 + 1.0 / 4 + 1.0 / 9)
        assert idw_interpolate(samples, 0.0, 0.0) == pytest.approx(expected, rel=1e-6)

    def test_power_changes_weighting(self):
        samples = [point(1.0, 0.0, 10.0), point(3.0, 0.0, 30.0)]
        flat = idw_interpolate(samples, 0.0, 0.0, power=1.0)
        sharp = idw_interpolate(samples, 0.0, 0.0, power=4.0)
        assert sharp < flat  # nearer (low) value dominates more strongly

    def test_output_is_convex_combination(self):
        rng = np.random.default_rng(0)
        samples = [
            point(float(rng.uniform(100, 110)), float(rng.uniform(25, 35)),
                  float(rng.uniform(15, 35)))
            for _ in range(12)
        ]
        values = [p.grad_t for p in samples]
        for _ in range(20):
            got = idw_interpolate(samples, float(rng.uniform(100, 110)), float(rng.uniform(25, 35)))
            assert min(values) <= got <= max(values)

    def test_translation_of_values(self):
        rng = np.random.default_rng(1)
        samples = [
            point(float(rng.uniform(100, 110)), float(rng.uniform(25, 35)),
                  float(rng.uniform(15, 35)))
            for _ in range(8)
        ]
        shifted = [point(p.lon, p.lat, p.grad_t + 7.5, p.section_depth) for p in samples]
        base = idw_interpolate(samples, 104.2, 28.9)
        assert idw_interpolate(shifted, 104.2, 28.9) == pytest.approx(base + 7.5, rel=1e-12)

    def test_max_neighbors_cap(self):
        samples = [point(1.0, 0.0, 10.0), point(2.0, 0.0, 20.0), point(50.0, 0.0, 1000.0)]
        capped = idw_interpolate(samples, 0.0, 0.0, max_neighbors=2)
        expected = (10.0 + 20.0 / 4) / (1 + 1.0 / 4)
        assert capped == pytest.approx(expected, rel=1e-6)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            idw_interpolate([], 0.0, 0.0)

    def test_bad_power_rejected(self):
        with pytest.raises(ValueError, match="power"):
            idw_interpolate([point(0, 0, 20)], 1.0, 1.0, power=0.0)


class TestInterpolateGrid:
    def test_row_count_and_extent(self):
        samples = [point(100.0, 25.0, 20.0), point(110.0, 35.0, 30.0)]
        rows = interpolate_grid(samples, 100.0, 110.0, 25.0, 35.0, 3, 2)
        assert len(rows) == 6
        lons = sorted({lon for lon, _, _ in rows})
        lats = sorted({lat for _, lat, _ in rows})
        assert lons == [100.0, 105.0, 110.0]
        assert lats == [25.0, 35.0]

    def test_single_point_grid(self):
        samples = [point(100.0, 25.0, 20.0)]
        rows = interpolate_grid(samples, 102.0, 102.0, 26.0, 26.0, 1, 1)
        assert rows == [(102.0, 26.0, 20.0)]

    def test_csv_layout(self):
        lines = grid_to_csv([(102.0, 26.0, 21.5)]).splitlines()
        assert lines[0] == "lon_deg,lat_deg,gradt_c_per_km"
        assert lines[1] == "102.0,26.0,21.5"


class TestParseHeatflow:
    TEXT = "lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n104.5,29.1,1200,26.4\n"

    def test_basic(self):
        points = parse_heatflow(self.TEXT)
        assert points == [HeatFlowPoint(104.5, 29.1, 1200.0, 26.4)]

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_heatflow("lon,lat\n1,2\n")

    def test_non_numeric_cell_cites_row_and_column(self):
        with pytest.raises(ValueError, match=r"row 2.*lat_deg"):
            parse_heatflow("lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n104.5,north,1200,26.4\n")

    def test_out_of_range_coordinate_cites_row(self):
        with pytest.raises(ValueError, match="row 2"):
            parse_heatflow("lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n999,29.1,1200,26.4\n")

    def test_samples_csv_dialect(self):
        # Blank lines are skipped, rows are numbered from the header as row 1,
        # and a short row or an empty file names the row and column.
        header = "lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n"
        assert parse_heatflow(header + "\n104.5,29.1,1200,26.4\n \n") == parse_heatflow(self.TEXT)
        with pytest.raises(SampleParseError, match="row 4, column section_depth_m: expected 4 heat-flow fields") as info:
            parse_heatflow(header + "104.5,29.1,1200,26.4\n\n104.5,29.1\n")
        assert (info.value.row, info.value.column) == (4, "section_depth_m")
        with pytest.raises(SampleParseError, match="row 1, column lon_deg: empty heat-flow file"):
            parse_heatflow("")
