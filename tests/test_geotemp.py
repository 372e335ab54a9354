import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shale_adsorb import geotemp
from shale_adsorb.geotemp import (
    BLOCK_PAIRS,
    DEFAULT_IDW_POWER,
    EARTH_RADIUS_M,
    HEATFLOW_CSV_COLUMNS,
    HeatFlowTable,
    InvalidHeatFlowPoint,
    filter_heatflow,
    grid_to_csv,
    idw_interpolate,
    interpolate_grid,
    parse_heatflow,
)
from shale_adsorb.dataset import SampleParseError, elementwise, write_csv
from conftest import csv_texts, seeded_csv
from helpers import haversine_m, naive_idw, naive_parse_heatflow


def point(lon, lat, grad_t, depth=1000.0):
    """One measurement as a (lon, lat, section_depth, grad_t) row."""
    return (lon, lat, depth, grad_t)


def table(*points):
    """The heat-flow table of measurement rows made by :func:`point`."""
    return HeatFlowTable(*np.array(points, dtype=float).reshape(-1, 4).T)


def rows_of(samples):
    return list(zip(samples.lon.tolist(), samples.lat.tolist(),
                    samples.section_depth.tolist(), samples.grad_t.tolist()))


class TestHeatFlowTable:
    def test_coordinate_ranges_enforced(self):
        with pytest.raises(ValueError, match="longitude"):
            table(point(190.0, 0.0, 25.0))
        with pytest.raises(ValueError, match="latitude"):
            table(point(0.0, -91.0, 25.0))

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(ValueError, match="gradient"):
            table(point(0.0, 0.0, math.nan))

    def test_first_bad_point_named_with_checks_in_order(self):
        # lon, then lat, then gradient, then depth, for the first bad point
        good = point(104.5, 29.1, 26.4)
        bad = (point(104.5, 95.0, math.nan, math.inf), point(104.5, 29.1, 26.4, -math.inf),
               point(math.nan, 95.0, 26.4))
        with pytest.raises(InvalidHeatFlowPoint) as info:
            table(good, *bad)
        assert (info.value.index, info.value.reason) == (1, "latitude out of range: 95.0")
        assert str(info.value) == "point 1: latitude out of range: 95.0"
        with pytest.raises(InvalidHeatFlowPoint, match="point 0: section depth must be finite, got -inf"):
            table(bad[1], bad[2])

    def test_columns_are_read_only_float64_of_one_length(self):
        samples = table(point(104.5, 29.1, 26.4), point(105, 30, 20, 700))
        assert len(samples) == 2
        assert samples.lon.dtype == np.float64
        with pytest.raises(ValueError):
            samples.grad_t[0] = 1.0
        with pytest.raises(ValueError, match=r"^heat-flow column lat has shape \(1,\), expected \(2,\)$"):
            HeatFlowTable([1.0, 2.0], [1.0], [1.0], [1.0])
        assert len(table()) == 0

    def test_compares_and_hashes_by_identity(self, data_dir):
        text = (data_dir / "heatflow.csv").read_text(encoding="utf-8")
        first, second = parse_heatflow(text), parse_heatflow(text)
        assert first == first
        assert first != second
        assert hash(first) == hash(first)
        assert isinstance(hash(second), int)


class TestHaversine:
    """The per-pair oracle ``helpers.haversine_m`` that the IDW kernel is checked against."""

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
        points = table(*(point(0, 0, 20, depth=d) for d in (100.0, 500.0, 900.0)))
        kept = filter_heatflow(points)
        assert kept.section_depth.tolist() == [500.0, 900.0]

    def test_empty_input(self):
        assert rows_of(filter_heatflow(table())) == []

    def test_zero_threshold_keeps_all(self):
        points = table(*(point(0, 0, 20, depth=d) for d in (100.0, 500.0)))
        assert rows_of(filter_heatflow(points, min_depth=0.0)) == rows_of(points)

    def test_idempotent(self):
        points = table(*(point(0, 0, 20, depth=d) for d in (100.0, 400.0, 600.0, 2000.0)))
        once = filter_heatflow(points)
        assert rows_of(filter_heatflow(once)) == rows_of(once)


class TestIdwInterpolate:
    def test_exact_hit_returns_sample_value(self):
        samples = table(point(105.0, 30.0, 27.3), point(106.0, 31.0, 18.0))
        assert idw_interpolate(samples, 105.0, 30.0) == 27.3

    def test_two_equidistant_points_average(self):
        samples = table(point(-0.5, 0.0, 10.0), point(0.5, 0.0, 30.0))
        assert idw_interpolate(samples, 0.0, 0.0) == pytest.approx(20.0, rel=1e-12)

    def test_three_point_hand_weights(self):
        # samples along the equator at 1, 2 and 3 degrees from the query:
        # distances scale as 1:2:3, so the squared-inverse weights are
        # 1, 1/4 and 1/9
        samples = table(point(1.0, 0.0, 24.0), point(2.0, 0.0, 30.0), point(3.0, 0.0, 12.0))
        expected = (24.0 + 30.0 / 4 + 12.0 / 9) / (1 + 1.0 / 4 + 1.0 / 9)
        assert idw_interpolate(samples, 0.0, 0.0) == pytest.approx(expected, rel=1e-6)

    def test_power_changes_weighting(self):
        samples = table(point(1.0, 0.0, 10.0), point(3.0, 0.0, 30.0))
        flat = idw_interpolate(samples, 0.0, 0.0, power=1.0)
        sharp = idw_interpolate(samples, 0.0, 0.0, power=4.0)
        assert sharp < flat  # nearer (low) value dominates more strongly

    def test_output_is_convex_combination(self):
        rng = np.random.default_rng(0)
        samples = table(*(
            point(float(rng.uniform(100, 110)), float(rng.uniform(25, 35)),
                  float(rng.uniform(15, 35)))
            for _ in range(12)
        ))
        values = samples.grad_t.tolist()
        for _ in range(20):
            got = idw_interpolate(samples, float(rng.uniform(100, 110)), float(rng.uniform(25, 35)))
            assert min(values) <= got <= max(values)

    def test_translation_of_values(self):
        rng = np.random.default_rng(1)
        samples = table(*(
            point(float(rng.uniform(100, 110)), float(rng.uniform(25, 35)),
                  float(rng.uniform(15, 35)))
            for _ in range(8)
        ))
        shifted = HeatFlowTable(samples.lon, samples.lat, samples.section_depth, samples.grad_t + 7.5)
        base = idw_interpolate(samples, 104.2, 28.9)
        assert idw_interpolate(shifted, 104.2, 28.9) == pytest.approx(base + 7.5, rel=1e-12)

    def test_max_neighbors_cap(self):
        samples = table(point(1.0, 0.0, 10.0), point(2.0, 0.0, 20.0), point(50.0, 0.0, 1000.0))
        capped = idw_interpolate(samples, 0.0, 0.0, max_neighbors=2)
        expected = (10.0 + 20.0 / 4) / (1 + 1.0 / 4)
        assert capped == pytest.approx(expected, rel=1e-6)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            idw_interpolate(table(), 0.0, 0.0)

    def test_bad_power_rejected(self):
        with pytest.raises(ValueError, match="power"):
            idw_interpolate(table(point(0, 0, 20)), 1.0, 1.0, power=0.0)

    @pytest.mark.parametrize("query", [(104.5, 95.0), (400.0, 30.0), (-180.5, 0.0), (0.0, -90.25),
                                       (math.nan, 30.0), (105.0, math.inf)])
    def test_query_off_the_globe_rejected(self, query):
        samples = table(point(104.0, 30.0, 20.0), point(106.0, 31.0, 30.0))
        message = (r"query point must have longitude in \[-180, 180\] and latitude in \[-90, 90\], "
                   rf"got \({re.escape(repr(query[0]))}, {re.escape(repr(query[1]))}\)")
        with pytest.raises(ValueError, match=message):
            idw_interpolate(samples, *query)

    def test_query_on_the_edge_of_the_globe_accepted(self):
        samples = table(point(0.0, 0.0, 20.0), point(90.0, 0.0, 30.0))
        for lon, lat in [(180.0, 90.0), (-180.0, -90.0), (180.0, 0.0)]:
            assert idw_interpolate(samples, lon, lat) == naive_idw(samples, lon, lat, DEFAULT_IDW_POWER, None)

    @pytest.mark.parametrize("cap", [2.5, 2.0, True, "2"])
    def test_non_integer_max_neighbors_rejected(self, cap):
        samples = table(point(1.0, 0.0, 10.0), point(2.0, 0.0, 20.0), point(50.0, 0.0, 1000.0))
        message = f"max_neighbors must be an integer, got {re.escape(repr(cap))}"
        with pytest.raises(ValueError, match=message):
            idw_interpolate(samples, 0.0, 0.0, max_neighbors=cap)
        with pytest.raises(ValueError, match=message):
            interpolate_grid(samples, 0.0, 1.0, 0.0, 1.0, 2, 2, max_neighbors=cap)

    def test_integer_like_max_neighbors_accepted(self):
        samples = table(point(1.0, 0.0, 10.0), point(2.0, 0.0, 20.0), point(50.0, 0.0, 1000.0))
        assert idw_interpolate(samples, 0.0, 0.0, max_neighbors=np.int64(2)) == \
            idw_interpolate(samples, 0.0, 0.0, max_neighbors=2)


class TestInterpolateGrid:
    def test_row_count_and_extent(self):
        samples = table(point(100.0, 25.0, 20.0), point(110.0, 35.0, 30.0))
        rows = interpolate_grid(samples, 100.0, 110.0, 25.0, 35.0, 3, 2)
        assert len(rows) == 6
        assert rows.dtype == np.float64 and rows.shape == (6, 3)
        assert rows[:, :2].tolist() == [[lon, lat] for lat in (25.0, 35.0) for lon in (100.0, 105.0, 110.0)]
        lons = sorted({lon for lon, _, _ in rows})
        lats = sorted({lat for _, lat, _ in rows})
        assert lons == [100.0, 105.0, 110.0]
        assert lats == [25.0, 35.0]

    def test_single_point_grid(self):
        samples = table(point(100.0, 25.0, 20.0))
        rows = interpolate_grid(samples, 102.0, 102.0, 26.0, 26.0, 1, 1)
        assert rows.tolist() == [[102.0, 26.0, 20.0]]

    @pytest.mark.parametrize("bounds", [(100.0, 110.0, 25.0, 95.0), (-181.0, 110.0, 25.0, 35.0),
                                        (100.0, 400.0, 25.0, 35.0), (100.0, 110.0, -90.5, 35.0),
                                        (math.nan, 110.0, 25.0, 35.0), (100.0, 110.0, 25.0, math.inf)])
    def test_bounds_off_the_globe_rejected(self, bounds):
        samples = table(point(104.0, 30.0, 20.0), point(106.0, 31.0, 30.0))
        with pytest.raises(ValueError, match=r"grid bounds must have longitude in \[-180, 180\] and latitude in "
                                             rf"\[-90, 90\], got {re.escape(repr(bounds))}"):
            interpolate_grid(samples, *bounds, 3, 2)

    @pytest.mark.parametrize("counts", [(True, 2), (3, False), (True, True), (2.5, 2), (3, 1.5)])
    def test_bool_or_fractional_node_counts_rejected(self, counts):
        samples = table(point(104.0, 30.0, 20.0), point(106.0, 31.0, 30.0))
        message = f"^grid node counts must be whole numbers, got {counts[0]!r} x {counts[1]!r}$"
        with pytest.raises(ValueError, match=message):
            interpolate_grid(samples, 100.0, 110.0, 25.0, 35.0, *counts)

    def test_one_node_axis_is_float_with_integer_bounds(self):
        samples = table(point(104.0, 30.0, 20.0), point(106.0, 31.0, 30.0))
        rows = interpolate_grid(samples, 100, 110, 25, 35, 1, 2)
        assert rows.dtype == np.float64
        assert [line.split(",")[:2] for line in grid_to_csv(rows).splitlines()[1:]] == [
            ["100.0", "25.0"], ["100.0", "35.0"]]
        rows = interpolate_grid(samples, 100, 110, 25, 35, 2, 1)
        assert [(repr(lon), repr(lat)) for lon, lat, _ in rows.tolist()] == [("100.0", "25.0"), ("110.0", "25.0")]
        assert rows.tolist() == interpolate_grid(samples, 100.0, 110.0, 25.0, 35.0, 2, 1).tolist()

    @pytest.mark.parametrize("counts", [(2, 1), (1, 2), (3, 3)])
    def test_numpy_scalar_bounds_written_as_floats(self, counts):
        samples = table(point(104.0, 30.0, 20.0), point(106.0, 31.0, 30.0))
        rows = interpolate_grid(samples, np.float64(100), np.float64(110), np.float64(25), np.float64(35), *counts)
        assert rows.dtype == np.float64
        assert grid_to_csv(rows) == grid_to_csv(interpolate_grid(samples, 100.0, 110.0, 25.0, 35.0, *counts))

    @pytest.mark.parametrize("scalar", [np.float64, np.float32, np.int64, int])
    def test_range_error_prints_bounds_as_floats(self, scalar):
        samples = table(point(104.0, 30.0, 20.0), point(106.0, 31.0, 30.0))
        with pytest.raises(ValueError) as plain:
            interpolate_grid(samples, 200.0, 110.0, 25.0, 35.0, 2, 1)
        with pytest.raises(ValueError) as typed:
            interpolate_grid(samples, scalar(200), scalar(110), 25.0, 35.0, 2, 1)
        assert str(typed.value) == str(plain.value)

    def test_whole_globe_grid_accepted(self):
        samples = table(point(104.0, 30.0, 20.0), point(106.0, 31.0, 30.0))
        rows = interpolate_grid(samples, -180.0, 180.0, -90.0, 90.0, 3, 3)
        assert rows[:3, :2].tolist() == [[-180.0, -90.0], [0.0, -90.0], [180.0, -90.0]]
        assert rows[-1, :2].tolist() == [180.0, 90.0]

    def test_csv_layout(self):
        lines = grid_to_csv(np.array([[102.0, 26.0, 21.5]])).splitlines()
        assert lines[0] == "lon_deg,lat_deg,gradt_c_per_km"
        assert lines[1] == "102.0,26.0,21.5"


def lattice_with_repeats():
    """90 samples on a half-degree lattice, then 10 of them repeated with other gradients.

    Grid nodes on quarter degrees sit exactly on lattice points (exact hits,
    some on a repeated point), and the repeats put exact distance ties next
    to each other in the neighbour order.
    """
    lattice = [point(100.0 + 0.5 * i, 25.0 + 0.5 * j, 15.0 + 1.7 * ((7 * i + 3 * j) % 11))
               for j in range(9) for i in range(10)]
    return table(*lattice, *(point(lon, lat, grad + 4.25) for lon, lat, _, grad in lattice[::9]))


# 29 x 25 nodes on quarter degrees; 725 nodes x 100 samples is more than one
# block of 2**16 (node, sample) pairs.
EXACTNESS_GRID = (99.0, 106.0, 24.0, 30.0, 29, 25)


class TestIdwExactness:
    """The IDW kernel equals the per-pair loop (``helpers.naive_idw``) with ``==``."""

    @pytest.mark.parametrize("power", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("cap", [None, 1, 8, 100, 105])
    def test_grid_and_queries_equal_per_pair_loop(self, cap, power):
        samples = lattice_with_repeats()
        rows = interpolate_grid(samples, *EXACTNESS_GRID, power=power, max_neighbors=cap).tolist()
        assert len(rows) == 29 * 25
        assert [g for _, _, g in rows] == [naive_idw(samples, lon, lat, power, cap) for lon, lat, _ in rows]
        for lon, lat, _ in rows[::7]:
            assert idw_interpolate(samples, lon, lat, power, cap) == naive_idw(samples, lon, lat, power, cap)

        assert interpolate_grid(samples, 101.3, 101.3, 26.1, 26.1, 1, 1, power, cap).tolist() == [
            [101.3, 26.1, naive_idw(samples, 101.3, 26.1, power, cap)]]

        single = table(rows_of(samples)[0])
        rows = interpolate_grid(single, 99.0, 101.0, 24.0, 26.0, 3, 3, power, cap).tolist()
        assert [g for _, _, g in rows] == [naive_idw(single, lon, lat, power, cap) for lon, lat, _ in rows]
        for lon, lat in ((100.0, 25.0), (103.7, 27.2)):
            assert idw_interpolate(single, lon, lat, power, cap) == naive_idw(single, lon, lat, power, cap)

    @pytest.mark.parametrize("cap", [None, 8])
    def test_scattered_points_equal_per_pair_loop(self, cap):
        # Off-lattice coordinates: thousands of distinct sine, asin and weight
        # arguments, and no ties.
        rng = np.random.default_rng(7)
        samples = table(*(point(float(lon), float(lat), float(g)) for lon, lat, g in
                          zip(rng.uniform(100, 110, 200), rng.uniform(25, 35, 200), rng.uniform(15, 35, 200))))
        rows = interpolate_grid(samples, 100.37, 109.91, 25.13, 34.77, 20, 20, 2.0, cap).tolist()
        assert [g for _, _, g in rows] == [naive_idw(samples, lon, lat, 2.0, cap) for lon, lat, _ in rows]
        for lon, lat in zip(rng.uniform(100, 110, 40).tolist(), rng.uniform(25, 35, 40).tolist()):
            assert idw_interpolate(samples, lon, lat, 2.0, cap) == naive_idw(samples, lon, lat, 2.0, cap)

    def test_squares_round_like_pow(self):
        # x * x and x ** 2 (libm pow) differ on about 0.1% of arguments, and
        # sqrt hides most of that; these pairs are ones where it does not.
        def distance_with_products(lon1, lat1, lon2, lat2):
            lon1, lat1, lon2, lat2 = map(math.radians, (lon1, lat1, lon2, lat2))
            s_lat = math.sin((lat2 - lat1) / 2.0)
            s_lon = math.sin((lon2 - lon1) / 2.0)
            a = s_lat * s_lat + math.cos(lat1) * math.cos(lat2) * (s_lon * s_lon)
            return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))

        rng = np.random.default_rng(11)
        pairs = rng.uniform([100, 25, 100, 25], [110, 35, 110, 35], size=(20_000, 4)).tolist()
        sensitive = [p for p in pairs if distance_with_products(*p) != haversine_m(*p)][:8]
        moved = 0
        for lon, lat, s_lon, s_lat in sensitive:
            samples = table(point(s_lon, s_lat, 20.0), point(105.0, 30.0, 30.0))
            expected = naive_idw(samples, lon, lat, 1.0, None)
            assert idw_interpolate(samples, lon, lat, 1.0) == expected
            assert interpolate_grid(samples, lon, lon, lat, lat, 1, 1, 1.0).tolist() == [[lon, lat, expected]]
            moved += naive_idw(samples, lon, lat, 1.0, None, distance_with_products) != expected
        assert moved > 0

    def test_signed_zero_sums_like_the_loop(self):
        # The loop's sums start at +0.0, so all-(-0.0) terms give +0.0, not -0.0.
        samples = table(point(100.0, 25.0, -0.0), point(101.0, 26.0, -0.0), point(102.0, 25.5, 3.0))
        for cap in (2, None):
            got = idw_interpolate(samples, 99.0, 25.0, max_neighbors=cap)
            assert repr(got) == repr(naive_idw(samples, 99.0, 25.0, 2.0, cap))
        rows = interpolate_grid(samples, 99.0, 99.5, 25.0, 25.0, 2, 1, max_neighbors=2)
        assert [repr(g) for _, _, g in rows.tolist()] == ["0.0", "0.0"]

    def test_inputs_hold_exact_hits_and_ties_across_the_cap(self):
        samples = lattice_with_repeats()
        hits = 0
        ties = {1: 0, 8: 0}
        for lon, lat, _ in interpolate_grid(samples, *EXACTNESS_GRID):
            d = sorted(haversine_m(lon, lat, s_lon, s_lat) for s_lon, s_lat, _, _ in rows_of(samples))
            if d[0] == 0.0:
                hits += 1
                continue
            for cap in ties:
                ties[cap] += d[cap - 1] == d[cap]
        assert hits == 90
        assert all(ties.values()), ties


def poles_and_antimeridian():
    """The lattice plus points at latitude +-90 and longitude +-180, some at both."""
    edges = [(180.0, 10.0), (-180.0, -20.0), (0.0, 90.0), (45.0, -90.0), (180.0, 90.0), (-180.0, -90.0),
             (-180.0, 10.0)]
    return table(*rows_of(lattice_with_repeats()), *(point(lon, lat, 20.0 + i) for i, (lon, lat) in enumerate(edges)))


# Nodes of a grid are taken from its sine tables by (row, column): a single
# row or a single column that spans blocks, and a grid whose nodes and points
# sit on the poles and on both sides of the antimeridian.
EDGE_GRIDS = {
    "one-row": (lattice_with_repeats, (99.0, 106.0, 27.0, 27.0, 701, 1)),
    "one-column": (lattice_with_repeats, (103.0, 103.0, 24.0, 30.0, 1, 701)),
    "poles-and-antimeridian": (poles_and_antimeridian, (-180.0, 180.0, -90.0, 90.0, 41, 19)),
}


@pytest.mark.parametrize("cap", [None, 8])
@pytest.mark.parametrize("case", EDGE_GRIDS)
def test_edge_grids_equal_per_pair_loop(case, cap):
    make, grid = EDGE_GRIDS[case]
    samples = make()
    rows = interpolate_grid(samples, *grid, max_neighbors=cap)
    assert len(rows) == grid[4] * grid[5] > BLOCK_PAIRS // len(samples)
    assert [g for _, _, g in rows] == [naive_idw(samples, lon, lat, 2.0, cap) for lon, lat, _ in rows]
    for lon, lat, g in rows[::37]:
        assert idw_interpolate(samples, lon, lat, max_neighbors=cap) == g


def count_kernel_elements(monkeypatch) -> dict[str, int]:
    """Elements that ``geotemp`` passes to the per-element kernel from now on, per ufunc name."""
    counts: dict[str, int] = {}

    def counting(ufunc, *operands):
        counts[ufunc.__name__] = counts.get(ufunc.__name__, 0) + np.broadcast(*operands).size
        return elementwise(ufunc, *operands)

    monkeypatch.setattr(geotemp, "elementwise", counting)
    return counts


class TestIdwCost:
    """With a cap k below n, ``asin`` runs only on candidate pairs, not on all q * n."""

    def test_capped_grid_calls_asin_only_on_candidates(self, monkeypatch):
        rng = np.random.default_rng(13)
        samples = table(*(point(float(lon), float(lat), float(g)) for lon, lat, g in
                          zip(rng.uniform(100, 110, 300), rng.uniform(25, 35, 300), rng.uniform(15, 35, 300))))
        grid, q, n, cap = (100.2, 109.7, 25.3, 34.6, 30, 30), 900, 300, 8
        assert q * n > 4 * BLOCK_PAIRS
        counts = count_kernel_elements(monkeypatch)
        capped = interpolate_grid(samples, *grid, max_neighbors=cap)
        capped_calls = counts.pop("arcsin")
        interpolate_grid(samples, *grid)
        full_calls = counts.pop("arcsin")
        monkeypatch.undo()

        # Every node needs its k nearest distances. Among scattered points no
        # other distance is near enough a node's k-th to be a candidate.
        assert capped_calls == q * cap < q * n // 10
        assert full_calls == q * n
        assert [g for _, _, g in capped] == [naive_idw(samples, lon, lat, 2.0, cap) for lon, lat, _ in capped]

    @pytest.mark.parametrize("cap", [None, 8])
    def test_sine_per_grid_angle_and_cosine_per_latitude(self, cap, monkeypatch):
        rng = np.random.default_rng(17)
        samples = table(*(point(float(lon), float(lat), float(g)) for lon, lat, g in
                          zip(rng.uniform(100, 110, 300), rng.uniform(25, 35, 300), rng.uniform(15, 35, 300))))
        n_lon, n_lat, n = 29, 31, 300
        assert n_lon * n_lat * n > 4 * BLOCK_PAIRS
        counts = count_kernel_elements(monkeypatch)

        interpolate_grid(samples, 100.2, 109.7, 25.3, 34.6, n_lon, n_lat, max_neighbors=cap)
        grid_calls = {name: counts.pop(name) for name in ("sin", "cos")}
        idw_interpolate(samples, 104.1, 29.9, max_neighbors=cap)
        query_calls = {name: counts.pop(name) for name in ("sin", "cos")}
        monkeypatch.undo()

        assert grid_calls == {"sin": (n_lat + n_lon) * n, "cos": n_lat + n}
        assert query_calls == {"sin": 2 * n, "cos": 1 + n}

    def test_asin_domain_error_raised_for_every_cap(self):
        # This query, past the pole, is almost antipodal to the first point,
        # and their haversine argument rounds above 1, where math.asin raises.
        # The public functions reject it as off the globe, so the kernel is
        # called directly. With a cap that pair is not a candidate, and the
        # kernel still raises as the per-pair loop does, alone or in a block.
        query = (780.3750505931939, 1037.1891982874113)
        samples = table(point(-119.62494940680612, 42.81080171258884, 1.0), point(0.0, 0.0, 2.0),
                        point(10.0, 5.0, 3.0))
        with pytest.raises(ValueError, match="math domain error"):
            haversine_m(*query, -119.62494940680612, 42.81080171258884)
        for cap in (None, 1, 2, 3):
            with pytest.raises(ValueError, match="math domain error"):
                geotemp._idw(samples, [query[0]], [query[1]], DEFAULT_IDW_POWER, cap)
            with pytest.raises(ValueError, match="math domain error"):
                geotemp._idw(samples, [5.0, query[0]], [1.0, query[1]], DEFAULT_IDW_POWER, cap)
            with pytest.raises(ValueError, match="query point must have longitude"):
                idw_interpolate(samples, *query, max_neighbors=cap)
            with pytest.raises(ValueError, match="grid bounds must have longitude"):
                interpolate_grid(samples, query[0], query[0], query[1], query[1], 1, 1, max_neighbors=cap)


_coordinate = st.tuples(st.floats(100.0, 110.0), st.floats(25.0, 35.0))


@st.composite
def _heatflow_sets(draw):
    """Heat-flow points in one region, some sharing coordinates."""
    places = draw(st.lists(_coordinate, min_size=1, max_size=12))
    picks = draw(st.lists(st.sampled_from(places), min_size=1, max_size=25))
    return table(*(point(lon, lat, draw(st.floats(10.0, 40.0))) for lon, lat in picks))


@settings(max_examples=80, deadline=None, database=None)
@given(samples=_heatflow_sets(), query=_coordinate, power=st.sampled_from([1.0, 2.0, 3.5]),
       cap=st.none() | st.integers(1, 30), data=st.data())
def test_idw_bounded_by_used_neighbours_and_grid_equals_query(samples, query, power, cap, data):
    """A value lies within the gradients of the neighbours it used; a grid node equals a query.

    The weighted mean of k neighbours is computed with k products and 2k
    rounded sums, so it may leave [min, max] by at most 2(k + 1) units of
    roundoff of the largest gradient.
    """
    lon, lat = query
    value = idw_interpolate(samples, lon, lat, power, cap)
    distances = [haversine_m(lon, lat, s_lon, s_lat) for s_lon, s_lat, _, _ in rows_of(samples)]
    order = sorted(range(len(samples)), key=distances.__getitem__)
    used = order[:1] if distances[order[0]] < 1.0 else order[:cap]
    grads = [samples.grad_t[i].item() for i in used]
    slack = 2 * (len(used) + 1) * np.finfo(float).eps * max(grads)
    assert min(grads) - slack <= value <= max(grads) + slack

    lon_lo, lon_hi = sorted(data.draw(st.tuples(st.floats(100.0, 110.0), st.floats(100.0, 110.0))))
    lat_lo, lat_hi = sorted(data.draw(st.tuples(st.floats(25.0, 35.0), st.floats(25.0, 35.0))))
    n_lon, n_lat = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    for node_lon, node_lat, g in interpolate_grid(samples, lon_lo, lon_hi, lat_lo, lat_hi,
                                                  n_lon, n_lat, power, cap):
        assert g == idw_interpolate(samples, node_lon, node_lat, power, cap)


@st.composite
def _mirrored_sets(draw):
    """Points mirrored about the meridian at 0 degrees, some repeated, and a query on it.

    ``radians(-x)`` is ``-radians(x)`` and ``sin`` is odd, so a point and its
    mirror are at exactly the same distance from any query on the meridian:
    ties at the k-th place are common, beside the repeats of one place.
    """
    offsets = draw(st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(-3.0, 3.0)), min_size=1, max_size=8))
    places = [(sign * lon, lat) for lon, lat in offsets for sign in (1.0, -1.0)]
    picks = draw(st.lists(st.sampled_from(places), min_size=1, max_size=30))
    samples = table(*(point(lon, lat, draw(st.floats(10.0, 40.0))) for lon, lat in picks))
    query_lat = draw(st.floats(-3.0, 3.0) | st.sampled_from([lat for _, lat in places]))
    return samples, query_lat


@settings(max_examples=120, deadline=None, database=None)
@given(clustered=_mirrored_sets(), power=st.sampled_from([1.0, 2.0, 3.5]), cap=st.integers(1, 30),
       data=st.data())
def test_capped_idw_equals_per_pair_loop_on_ties(clustered, power, cap, data):
    """A capped query and every grid node equal ``helpers.naive_idw`` where distances tie at the cap."""
    samples, query_lat = clustered
    assert idw_interpolate(samples, 0.0, query_lat, power, cap) == naive_idw(samples, 0.0, query_lat, power, cap)

    half_width = data.draw(st.sampled_from([0.0, 0.5, 2.0]))
    lat_lo, lat_hi = sorted(data.draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
    n_lon, n_lat = data.draw(st.sampled_from([1, 3, 5])), data.draw(st.integers(1, 4))
    rows = interpolate_grid(samples, -half_width, half_width, lat_lo, lat_hi, n_lon, n_lat, power, cap)
    assert [g for _, _, g in rows] == [naive_idw(samples, lon, lat, power, cap) for lon, lat, _ in rows]


class TestParseHeatflow:
    TEXT = "lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n104.5,29.1,1200,26.4\n"

    def test_basic(self):
        points = parse_heatflow(self.TEXT)
        assert rows_of(points) == [(104.5, 29.1, 1200.0, 26.4)]

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_heatflow("lon,lat\n1,2\n")

    def test_non_numeric_cell_cites_row_and_column(self):
        with pytest.raises(ValueError, match=r"row 2.*lat_deg"):
            parse_heatflow("lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n104.5,north,1200,26.4\n")

    @pytest.mark.parametrize("position", [0, 299])
    def test_digit_grouping_is_not_a_number(self, position):
        # float("1_200") is 1200.0, but a heat-flow cell is not Python syntax
        rows = ["104.5,29.1,1200,26.4\n"] * 300
        rows[position] = "104.5,29.1,1_200,26.4\n"
        with pytest.raises(SampleParseError, match=f"^row {position + 2}, column section_depth_m: "
                                                   "not a number: '1_200'$"):
            parse_heatflow(self.TEXT.splitlines(keepends=True)[0] + "".join(rows))

    def test_out_of_range_coordinate_cites_row(self):
        with pytest.raises(ValueError, match="row 2"):
            parse_heatflow("lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n999,29.1,1200,26.4\n")

    def test_samples_csv_dialect(self):
        # Blank lines are skipped, rows are numbered from the header as row 1,
        # and a short row or an empty file names the row and column.
        header = "lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n"
        blanks = parse_heatflow(header + "\n104.5,29.1,1200,26.4\n \n")
        assert rows_of(blanks) == rows_of(parse_heatflow(self.TEXT))
        with pytest.raises(SampleParseError, match="row 4, column section_depth_m: expected 4 heat-flow fields") as info:
            parse_heatflow(header + "104.5,29.1,1200,26.4\n\n104.5,29.1\n")
        assert (info.value.row, info.value.column) == (4, "section_depth_m")
        with pytest.raises(SampleParseError, match="row 1, column lon_deg: empty heat-flow file"):
            parse_heatflow("")

    def test_bad_row_fails_before_a_later_unreadable_row(self):
        # Row 2's longitude is off the globe; row 3 has two cells. Row 2 fails first, as in parse_samples.
        text = "lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n200,29.1,1200,26.4\n104.5,29.1\n"
        with pytest.raises(SampleParseError, match=r"^row 2, column record: longitude out of range: 200\.0$"):
            parse_heatflow(text)



def _seeded_heatflow(rng, n):
    """Heat-flow CSV text of n rows with :func:`conftest.seeded_csv`'s faults and those of a heat-flow row."""
    def any_cell(text):
        return lambda cells: cells.__setitem__(int(rng.integers(len(cells))), text)

    def cell(position, text):
        return lambda cells: cells.__setitem__(position, text)

    faults = [any_cell("north"), any_cell(""), cell(0, "999"), cell(1, "-91"), cell(3, "nan"), cell(2, "inf"),
              any_cell("1_0")]
    rows = [[repr(float(rng.uniform(-180.0, 180.0))), repr(float(rng.uniform(-90.0, 90.0))),
             repr(float(rng.uniform(0.0, 5000.0))), repr(float(rng.uniform(10.0, 60.0)))] for _ in range(n)]
    return seeded_csv(rng, HEATFLOW_CSV_COLUMNS, rows, faults)


def _parse_outcome(parse, text):
    """The four columns' bytes, or the type, message, row and column of the error ``parse`` raises."""
    try:
        columns = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    if isinstance(columns, HeatFlowTable):
        columns = (columns.lon, columns.lat, columns.section_depth, columns.grad_t)
    return [np.asarray(column, dtype=float).tobytes() for column in columns]


@pytest.mark.parametrize("seed", range(40))
def test_parse_heatflow_equals_the_per_row_parser(seed):
    text = _seeded_heatflow(np.random.default_rng(seed), 12)
    assert _parse_outcome(parse_heatflow, text) == _parse_outcome(naive_parse_heatflow, text)


def test_a_cell_moved_to_the_row_before_fails_the_long_row():
    # the flat cells would be two good rows, but the lines hold 5 and 3
    text = "lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n104.5,29.1,1200,26.4,27.0\n29.1,1200,26.4\n"
    assert _parse_outcome(parse_heatflow, text) == _parse_outcome(naive_parse_heatflow, text) == (
        SampleParseError, "row 2, column gradt_c_per_km: expected 4 heat-flow fields, got 5", 2, "gradt_c_per_km")


@settings(max_examples=300, deadline=None, database=None)
@given(text=csv_texts(HEATFLOW_CSV_COLUMNS))
def test_parse_heatflow_of_any_text_equals_the_per_row_parser(text):
    assert _parse_outcome(parse_heatflow, text) == _parse_outcome(naive_parse_heatflow, text)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None, database=None)
@given(rows=st.lists(st.tuples(st.floats(-180.0, 180.0), st.floats(-90.0, 90.0), _finite, _finite), max_size=20))
def test_heatflow_csv_round_trip(rows):
    """Points written as float columns parse back to the same columns, bit for bit."""
    expected = np.array(rows, dtype=float).reshape(-1, 4).T
    points = parse_heatflow(write_csv(HEATFLOW_CSV_COLUMNS, list(expected)))
    for column, values in zip((points.lon, points.lat, points.section_depth, points.grad_t), expected):
        assert column.tobytes() == values.tobytes()
