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

import numpy as np

from .dataset import (
    ColumnTable, SampleParseError, _parse_float, elementwise, first_failure, plain_csv_columns, read_csv_table,
    require_int, write_csv,
)
from .outliers import first_k_of_candidates, nearest_first

EARTH_RADIUS_M = 6_371_000.0
DEFAULT_MIN_SECTION_DEPTH_M = 500.0
DEFAULT_IDW_POWER = 2.0

#: Queries closer than this to a sample return the sample value exactly.
EXACT_HIT_DISTANCE_M = 1.0

#: (query, sample) pairs held by one block of the IDW kernel: 2**16 float64
#: distances, 0.5 MiB, plus a few arrays of as many floats while ``asin`` runs.
BLOCK_PAIRS = 2 ** 16

#: With a neighbour cap, a pair is a candidate when its haversine argument
#: ``a`` is within this factor of the query's k-th smallest. A pair beyond it
#: is farther by a relative 2**-31 or more, far above the ulp-level rounding
#: of ``asin`` and the ``2 * R`` product, so at least k points are strictly
#: nearer and it can be neither a neighbour nor a tie at the cap.
CANDIDATE_MARGIN = 1.0 + 2.0 ** -30

_ON_GLOBE = "longitude in [-180, 180] and latitude in [-90, 90]"

_RADIANS_PER_DEGREE = math.pi / 180.0

HEATFLOW_CSV_COLUMNS = ("lon_deg", "lat_deg", "section_depth_m", "gradt_c_per_km")


class InvalidHeatFlowPoint(ValueError):
    """A heat-flow measurement breaks an invariant; ``index`` is its position."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"point {index}: {reason}")
        self.index = index
        self.reason = reason


@dataclass(frozen=True, eq=False)
class HeatFlowTable(ColumnTable):
    """Georeferenced temperature-gradient measurements as a :class:`~shale_adsorb.dataset.ColumnTable`.

    Each measurement is checked in order (longitude, then latitude in range,
    then a finite gradient and depth); a failure raises
    :class:`InvalidHeatFlowPoint`.
    """

    lon: np.ndarray            # degrees east
    lat: np.ndarray            # degrees north
    section_depth: np.ndarray  # average depth of the measuring section, m
    grad_t: np.ndarray         # degC per km

    label = "heat-flow"
    checks = (
        ("lon", lambda lon: (-180.0 <= lon) & (lon <= 180.0), "longitude out of range: {value!r}"),
        ("lat", lambda lat: (-90.0 <= lat) & (lat <= 90.0), "latitude out of range: {value!r}"),
        ("grad_t", np.isfinite, "gradient must be finite, got {value!r}"),
        ("section_depth", np.isfinite, "section depth must be finite, got {value!r}"),
    )
    row_error = InvalidHeatFlowPoint


def filter_heatflow(
    points: HeatFlowTable,
    min_depth: float = DEFAULT_MIN_SECTION_DEPTH_M,
) -> HeatFlowTable:
    """Drop points whose measuring section is shallower than ``min_depth``."""
    if not math.isfinite(min_depth):
        raise ValueError(f"min depth must be finite, got {min_depth!r}")
    return points.take(points.section_depth >= min_depth)


def _sin_sq_half(sample_angles: np.ndarray, grid_angles: np.ndarray) -> np.ndarray:
    """``math.sin((s - q) / 2.0) ** 2`` per grid angle q (row) and sample angle s (column), a row at a time.

    Row by row, the kernel's temporaries stay one row each; over the whole
    table they would be about four more tables.
    """
    terms = np.empty((len(grid_angles), len(sample_angles)))
    for row, angle in zip(terms, grid_angles.tolist()):
        row[:] = elementwise(np.power, elementwise(np.sin, (sample_angles - angle) / 2.0), 2.0)
    return terms


def _idw(
    samples: HeatFlowTable,
    lons: Sequence[float],
    lats: Sequence[float],
    power: float,
    max_neighbors: int | None,
) -> np.ndarray:
    """IDW gradient at each node of ``lats`` x ``lons``, latitude-major, bit for bit ``helpers.naive_idw``.

    A query is a 1 x 1 grid. The sine terms are two tables of (len(lats) +
    len(lons)) * n floats, one per (grid angle, sample); blocks of about
    ``BLOCK_PAIRS`` (node, sample) pairs take their rows. NumPy does only the
    correctly rounded steps (+ - * /, ``sqrt``, comparisons, ``partition``,
    ``argsort``, ``lexsort`` and a left-to-right ``cumsum``), in the order
    its ``haversine_m`` and nearest-first weighted sum use. Every ``sin``,
    ``cos``, ``asin`` and power is a :func:`~shale_adsorb.dataset.elementwise`
    call, which rounds each element as the ``math`` or builtin call does:
    ``cos`` once per grid latitude and per sample, and the weight
    ``d ** -power`` only for the neighbours used. Without a cap below n,
    ``asin`` runs once per pair and :func:`nearest_first` orders every row.
    With a cap k < n, ``asin(sqrt(a))`` is monotone in the haversine argument
    ``a``, so ``asin`` runs only on the candidate pairs within
    ``CANDIDATE_MARGIN`` of each node's k-th smallest ``a``, and the k
    nearest are picked among those by (distance, index). The kernel never
    raises, so any pair with ``sqrt(a) > 1`` raises here the ``ValueError``
    that ``math.asin`` raises on it; the callers check that every node lies
    on the globe, and no pair of points on it rounds there.
    """
    if not samples:
        raise ValueError("cannot interpolate from an empty sample set")
    if not (math.isfinite(power) and power > 0):
        raise ValueError(f"power must be positive and finite, got {power}")
    if max_neighbors is not None:
        max_neighbors = require_int("max_neighbors", max_neighbors)
        if max_neighbors < 1:
            raise ValueError(f"max_neighbors must be >= 1, got {max_neighbors}")

    n = len(samples)
    k = n if max_neighbors is None else min(max_neighbors, n)
    grads = samples.grad_t
    # math.radians(x) is the one correctly rounded product x * (pi / 180).
    sample_lon = samples.lon * _RADIANS_PER_DEGREE
    sample_lat = samples.lat * _RADIANS_PER_DEGREE
    grid_lon = np.array(lons, dtype=float) * _RADIANS_PER_DEGREE
    grid_lat = np.array(lats, dtype=float) * _RADIANS_PER_DEGREE
    lat_table = _sin_sq_half(sample_lat, grid_lat)
    lon_table = _sin_sq_half(sample_lon, grid_lon)
    lat_cos = elementwise(np.cos, grid_lat)
    sample_cos = elementwise(np.cos, sample_lat)

    nodes = len(grid_lat) * len(grid_lon)
    values = np.empty(nodes)
    step = max(1, BLOCK_PAIRS // n)
    for start in range(0, nodes, step):
        row, column = np.divmod(np.arange(start, min(start + step, nodes)), len(grid_lon))
        a = lat_table[row] + lat_cos[row, None] * sample_cos * lon_table[column]
        root = np.sqrt(a)
        if (root > 1.0).any():
            raise ValueError("math domain error")
        if k == n:
            order, nearest = nearest_first(2.0 * EARTH_RADIUS_M * elementwise(np.arcsin, root), n)
        else:
            kth = np.partition(a, k - 1, axis=1)[:, k - 1]
            r, c = np.nonzero(a <= kth[:, None] * CANDIDATE_MARGIN)
            dist = 2.0 * EARTH_RADIUS_M * elementwise(np.arcsin, root[r, c])
            order, nearest = first_k_of_candidates(r, c, dist, len(a), k)
        block_values = grads[order[:, 0]]
        far = nearest[:, 0] >= EXACT_HIT_DISTANCE_M
        if far.any():
            w = elementwise(np.power, nearest[far], -power)
            # cumsum starts from the first term, not from 0.0: the two differ
            # only where the sum is -0.0, and + 0.0 turns that into 0.0.
            numerator = np.cumsum(w * grads[order[far]], axis=1)[:, -1] + 0.0
            denominator = np.cumsum(w, axis=1)[:, -1]
            if not denominator.all():
                raise ValueError(f"inverse-distance weights underflow to zero at power {power}")
            block_values[far] = numerator / denominator
        values[start:start + step] = block_values
    return values


def idw_interpolate(
    samples: HeatFlowTable,
    lon: float,
    lat: float,
    power: float = DEFAULT_IDW_POWER,
    max_neighbors: int | None = None,
) -> float:
    """Inverse-distance-weighted temperature gradient at a query point.

    Weights are 1 / d**power over all samples (or the ``max_neighbors``
    nearest when set, ties by ascending sample index), summed nearest first.
    A query within one meter of a sample returns that sample's gradient
    exactly. Costs O(n log n) for n samples in NumPy, with 2n ``sin`` and n
    ``asin`` evaluations, or, with ``max_neighbors`` k below n, O(n), 2n
    ``sin`` and about k ``asin``; each is one element of a
    :func:`~shale_adsorb.dataset.elementwise` call, not a Python call.
    The query must have longitude in [-180, 180] and latitude in [-90, 90].
    """
    if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
        raise ValueError(f"query point must have {_ON_GLOBE}, got ({lon!r}, {lat!r})")
    return _idw(samples, [lon], [lat], power, max_neighbors).item()


def interpolate_grid(
    samples: HeatFlowTable,
    lon_min: float,
    lon_max: float,
    lat_min: float,
    lat_max: float,
    n_lon: int | float,
    n_lat: int | float,
    power: float = DEFAULT_IDW_POWER,
    max_neighbors: int | None = None,
) -> np.ndarray:
    """Interpolated gradient on an inclusive regular grid: a (nodes, 3) float64 array of lon, lat and value.

    Nodes are latitude-major: longitude varies fastest. The bounds must have
    longitudes in [-180, 180] and latitudes in [-90, 90]. Node counts may be
    whole floats, but not fractions or bools. Every node equals
    ``idw_interpolate`` at its (lon, lat). All nodes go through one blocked
    NumPy pass: O(q * n log n) for q nodes and n samples, with memory
    bounded per block, and q * n ``asin`` evaluations; with
    ``max_neighbors`` k below n, O(q * n) NumPy work and about q * k.
    Either way it takes (n_lat + n_lon) * n sines, one per (grid angle,
    sample): 55,600 for 695 samples on a 40 x 40 grid. Each is one element
    of a :func:`~shale_adsorb.dataset.elementwise` call, which rounds as
    ``math`` does.
    """
    lon_min, lon_max, lat_min, lat_max = map(float, (lon_min, lon_max, lat_min, lat_max))
    if not (all(-180.0 <= lon <= 180.0 for lon in (lon_min, lon_max))
            and all(-90.0 <= lat <= 90.0 for lat in (lat_min, lat_max))):
        raise ValueError(f"grid bounds must have {_ON_GLOBE}, got {(lon_min, lon_max, lat_min, lat_max)!r}")
    if any(isinstance(count, bool) or not float(count).is_integer() for count in (n_lon, n_lat)):
        raise ValueError(f"grid node counts must be whole numbers, got {n_lon!r} x {n_lat!r}")
    if n_lon < 1 or n_lat < 1:
        raise ValueError("grid needs at least one point per axis")
    n_lon, n_lat = int(n_lon), int(n_lat)
    lats = [lat_min if n_lat == 1 else lat_min + (lat_max - lat_min) * i / (n_lat - 1) for i in range(n_lat)]
    lons = [lon_min if n_lon == 1 else lon_min + (lon_max - lon_min) * j / (n_lon - 1) for j in range(n_lon)]
    values = _idw(samples, lons, lats, power, max_neighbors)
    return np.column_stack([np.tile(lons, n_lat), np.repeat(lats, n_lon), values])


def _heatflow_table(columns: Sequence[Sequence[str]]) -> HeatFlowTable:
    """The table of the heat-flow-CSV columns of cells; a cell holding a ``_`` or not a number raises ``ValueError``."""
    if "_" in "".join(map("".join, columns)):  # float reads "_" as digit grouping
        raise ValueError("a heat-flow cell holds a _")
    return HeatFlowTable(*(np.fromiter(map(float, column), float, len(column)) for column in columns))


def _rows_table(rows: Sequence[tuple[int, list[str]]]) -> HeatFlowTable:
    """The table of (row number, cells) pairs; a broken invariant names its row."""
    try:
        return _heatflow_table(list(zip(*(cells for _, cells in rows))) or [()] * len(HEATFLOW_CSV_COLUMNS))
    except InvalidHeatFlowPoint as exc:
        raise SampleParseError(rows[exc.index][0], "record", exc.reason) from exc


def _check_cells(row: tuple[int, list[str]]) -> None:
    """Raise the error of the first cell of a (row number, cells) pair that is not a number."""
    number, cells = row
    for column, cell in zip(HEATFLOW_CSV_COLUMNS, cells):
        _parse_float(cell, number, column, required=True)


def parse_heatflow(source: str | Iterable[str]) -> HeatFlowTable:
    """Parse heat-flow CSV (lon_deg, lat_deg, section_depth_m, gradt_c_per_km).

    Same dialect as the samples CSV; every cell is a required number, read
    by :func:`~shale_adsorb.dataset.parse_number` as a samples cell is.
    Raises :class:`SampleParseError` for the first bad row, by
    :func:`~shale_adsorb.dataset.first_failure`, naming its column
    (``record`` for an invariant of :class:`HeatFlowTable`); a row's cells
    are checked before its invariants, and a bad row before a later row the
    reader cannot read.

    A plain text (see :func:`~shale_adsorb.dataset.plain_csv_columns`) is
    split whole and read as one table. Anything else, and a plain text with
    any fault, goes through :func:`~shale_adsorb.dataset.read_csv_table`'s
    ``csv.reader``, which gives the same rows and is the one source of
    every error.
    """
    plain = plain_csv_columns(source, HEATFLOW_CSV_COLUMNS)
    if plain is not None:
        try:
            return _heatflow_table(plain)
        except ValueError:
            pass  # read_csv_table's rows below name the first bad row's own error
    rows: list[tuple[int, list[str]]] = []
    try:
        for row in read_csv_table(source, HEATFLOW_CSV_COLUMNS, "heat-flow"):
            rows.append(row)
    finally:  # the rows before one the reader cannot read fail first
        points = first_failure(_rows_table, rows, _check_cells)
    return points


def grid_to_csv(grid: np.ndarray) -> str:
    """CSV of a (nodes, 3) array of lon, lat and gradient, as :func:`interpolate_grid` returns."""
    return write_csv(("lon_deg", "lat_deg", "gradt_c_per_km"), list(grid.T))
