"""Heat-flow filtering and inverse-distance-weighted temperature-gradient interpolation.

Shallow measuring sections track surface conditions rather than the
geotherm, so points above a depth cutoff are dropped before interpolation.
Distances are great-circle (haversine) because the sample sets span
continents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dataset import SampleParseError, _parse_float, read_csv_table, write_csv

EARTH_RADIUS_M = 6_371_000.0
DEFAULT_MIN_SECTION_DEPTH_M = 500.0
DEFAULT_IDW_POWER = 2.0

#: Queries closer than this to a sample return the sample value exactly.
EXACT_HIT_DISTANCE_M = 1.0

HEATFLOW_CSV_COLUMNS = ("lon_deg", "lat_deg", "section_depth_m", "gradt_c_per_km")


@dataclass(frozen=True)
class HeatFlowPoint:
    """A georeferenced temperature-gradient measurement."""

    lon: float             # degrees east
    lat: float             # degrees north
    section_depth: float   # average depth of the measuring section, m
    grad_t: float          # degC per km

    def __post_init__(self):
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon!r}")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat!r}")
        if not math.isfinite(self.grad_t):
            raise ValueError(f"gradient must be finite, got {self.grad_t!r}")
        if not math.isfinite(self.section_depth):
            raise ValueError(f"section depth must be finite, got {self.section_depth!r}")


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in meters between two lon/lat points."""
    lon1, lat1, lon2, lat2 = map(math.radians, (lon1, lat1, lon2, lat2))
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    a = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def filter_heatflow(
    points: Sequence[HeatFlowPoint],
    min_depth: float = DEFAULT_MIN_SECTION_DEPTH_M,
) -> list[HeatFlowPoint]:
    """Drop points whose measuring section is shallower than ``min_depth``."""
    if not math.isfinite(min_depth):
        raise ValueError(f"min depth must be finite, got {min_depth!r}")
    return [p for p in points if p.section_depth >= min_depth]


def idw_interpolate(
    samples: Sequence[HeatFlowPoint],
    lon: float,
    lat: float,
    power: float = DEFAULT_IDW_POWER,
    max_neighbors: int | None = None,
) -> float:
    """Inverse-distance-weighted temperature gradient at a query point.

    Weights are 1 / d**power over all samples (or the ``max_neighbors``
    nearest when set). A query within one meter of a sample returns that
    sample's gradient exactly.
    """
    if not samples:
        raise ValueError("cannot interpolate from an empty sample set")
    if not (math.isfinite(power) and power > 0):
        raise ValueError(f"power must be positive and finite, got {power}")
    if not (math.isfinite(lon) and math.isfinite(lat)):
        raise ValueError(f"query point must be finite, got ({lon!r}, {lat!r})")
    if max_neighbors is not None and max_neighbors < 1:
        raise ValueError(f"max_neighbors must be >= 1, got {max_neighbors}")
    distances = [haversine_m(lon, lat, p.lon, p.lat) for p in samples]
    # A stable sort: equal distances keep ascending sample index.
    order = sorted(range(len(samples)), key=distances.__getitem__)
    if distances[order[0]] < EXACT_HIT_DISTANCE_M:
        return samples[order[0]].grad_t

    numerator = 0.0
    denominator = 0.0
    for i in order[:max_neighbors]:
        w = distances[i] ** -power
        numerator += w * samples[i].grad_t
        denominator += w
    return numerator / denominator


def interpolate_grid(
    samples: Sequence[HeatFlowPoint],
    lon_min: float,
    lon_max: float,
    lat_min: float,
    lat_max: float,
    n_lon: int | float,
    n_lat: int | float,
    power: float = DEFAULT_IDW_POWER,
    max_neighbors: int | None = None,
) -> list[tuple[float, float, float]]:
    """Interpolated (lon, lat, gradient) rows on an inclusive regular grid.

    Node counts may be given as floats but must be whole numbers.
    """
    if not all(math.isfinite(bound) for bound in (lon_min, lon_max, lat_min, lat_max)):
        raise ValueError(f"grid bounds must be finite, got {(lon_min, lon_max, lat_min, lat_max)!r}")
    if not (float(n_lon).is_integer() and float(n_lat).is_integer()):
        raise ValueError(f"grid node counts must be whole numbers, got {n_lon!r} x {n_lat!r}")
    if n_lon < 1 or n_lat < 1:
        raise ValueError("grid needs at least one point per axis")
    n_lon, n_lat = int(n_lon), int(n_lat)
    rows = []
    for i in range(n_lat):
        lat = lat_min if n_lat == 1 else lat_min + (lat_max - lat_min) * i / (n_lat - 1)
        for j in range(n_lon):
            lon = lon_min if n_lon == 1 else lon_min + (lon_max - lon_min) * j / (n_lon - 1)
            rows.append((lon, lat, idw_interpolate(samples, lon, lat, power, max_neighbors)))
    return rows


def parse_heatflow(source: str | Iterable[str]) -> list[HeatFlowPoint]:
    """Parse heat-flow CSV (lon_deg, lat_deg, section_depth_m, gradt_c_per_km).

    Same dialect as the samples CSV; every cell is a required number. Raises
    :class:`SampleParseError` naming the row and column.
    """
    points = []
    for row, cells in read_csv_table(source, HEATFLOW_CSV_COLUMNS, "heat-flow"):
        values = [_parse_float(cell, row, column, required=True)
                  for column, cell in zip(HEATFLOW_CSV_COLUMNS, cells)]
        try:
            points.append(HeatFlowPoint(*values))
        except ValueError as exc:
            raise SampleParseError(row, "record", str(exc)) from exc
    return points


def grid_to_csv(rows: Sequence[tuple[float, float, float]]) -> str:
    return write_csv(("lon_deg", "lat_deg", "gradt_c_per_km"),
                     ([repr(lon), repr(lat), repr(grad)] for lon, lat, grad in rows))
