"""Heat-flow filtering and inverse-distance-weighted temperature-gradient interpolation.

Shallow measuring sections track surface conditions rather than the
geotherm, so points above a depth cutoff are dropped before interpolation.
Distances are great-circle (haversine) because the sample sets span
continents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dataset import SampleParseError, _parse_float, elementwise, read_csv_table, require_int, write_csv
from .outliers import first_k_of_candidates, nearest_first

EARTH_RADIUS_M = 6_371_000.0
DEFAULT_MIN_SECTION_DEPTH_M = 500.0
DEFAULT_IDW_POWER = 2.0

#: Queries closer than this to a sample return the sample value exactly.
EXACT_HIT_DISTANCE_M = 1.0

#: (query, sample) pairs held by one block of the IDW kernel: 2**16 float64
#: distances, 0.5 MiB, plus as many boxed Python floats while ``asin`` runs.
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


@dataclass(frozen=True, eq=False)
class HeatFlowTable:
    """Georeferenced temperature-gradient measurements, one read-only float64 array per field.

    Position i of every array is measurement i. The constructor checks each
    measurement in order (longitude, then latitude in range, then a finite
    gradient and depth) and raises :class:`InvalidHeatFlowPoint` for the
    first one that fails. Tables compare and hash by identity.
    """

    lon: np.ndarray            # degrees east
    lat: np.ndarray            # degrees north
    section_depth: np.ndarray  # average depth of the measuring section, m
    grad_t: np.ndarray         # degC per km

    def __post_init__(self):
        columns = {field.name: np.array(getattr(self, field.name), dtype=float) for field in fields(self)}
        shapes = {column.shape for column in columns.values()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(f"heat-flow columns must be 1-D and of one length, got shapes {sorted(shapes)}")
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        checks = (
            (self.lon, (-180.0 <= self.lon) & (self.lon <= 180.0), "longitude out of range: {!r}"),
            (self.lat, (-90.0 <= self.lat) & (self.lat <= 90.0), "latitude out of range: {!r}"),
            (self.grad_t, np.isfinite(self.grad_t), "gradient must be finite, got {!r}"),
            (self.section_depth, np.isfinite(self.section_depth), "section depth must be finite, got {!r}"),
        )
        bad = np.flatnonzero(~np.logical_and.reduce([ok for _, ok, _ in checks]))
        if bad.size:
            i = bad[0]
            column, _, message = next(check for check in checks if not check[1][i])
            raise InvalidHeatFlowPoint(int(i), message.format(column[i].item()))

    def __len__(self) -> int:
        return len(self.lon)


class InvalidHeatFlowPoint(ValueError):
    """A heat-flow measurement breaks an invariant; ``index`` is its position."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"point {index}: {reason}")
        self.index = index
        self.reason = reason


def filter_heatflow(
    points: HeatFlowTable,
    min_depth: float = DEFAULT_MIN_SECTION_DEPTH_M,
) -> HeatFlowTable:
    """Drop points whose measuring section is shallower than ``min_depth``."""
    if not math.isfinite(min_depth):
        raise ValueError(f"min depth must be finite, got {min_depth!r}")
    keep = points.section_depth >= min_depth
    return HeatFlowTable(*(getattr(points, field.name)[keep] for field in fields(points)))


def _sin_sq_half(sample_angles: np.ndarray, query_angles: np.ndarray, step: int) -> Iterator[np.ndarray]:
    """Per block of ``step`` queries, ``math.sin((s - q) / 2.0) ** 2`` for every (query, sample) pair.

    The terms are computed once per distinct query angle in a block, and
    reused by the next block when its distinct angles are the same, as the
    longitudes of a grid's rows are.
    """
    seen = terms = None
    for start in range(0, len(query_angles), step):
        distinct, inverse = np.unique(query_angles[start:start + step], return_inverse=True)
        if not np.array_equal(distinct, seen):
            half = (sample_angles - distinct[:, None]) / 2.0
            squares = map(pow, map(math.sin, half.ravel().tolist()), repeat(2))
            seen, terms = distinct, np.fromiter(squares, float, half.size).reshape(half.shape)
        yield terms[inverse]


def _idw(
    samples: HeatFlowTable,
    lons: Sequence[float],
    lats: Sequence[float],
    power: float,
    max_neighbors: int | None,
) -> list[float]:
    """IDW gradient at each (lon, lat) query, bit for bit the oracle ``naive_idw`` in ``tests/helpers.py``.

    Works on blocks of queries holding about ``BLOCK_PAIRS`` (query, sample)
    pairs. NumPy does only the correctly rounded steps (+ - * /, ``sqrt``,
    comparisons, ``partition``, ``argsort``, ``lexsort`` and a left-to-right
    ``cumsum``), in the order its ``haversine_m`` and nearest-first weighted
    sum use. Every ``sin``, ``cos``, ``asin`` and ``pow`` is the ``math`` or
    builtin call on Python floats: the sine terms once per distinct query
    latitude or longitude, ``cos`` once per point, and the weight
    ``d ** -power`` only for the neighbours used. Without a cap below n,
    ``asin`` runs once per pair and :func:`nearest_first` orders every row.
    With a cap k < n, ``asin(sqrt(a))`` is monotone in the haversine argument
    ``a``, so ``asin`` runs only on the candidate pairs within
    ``CANDIDATE_MARGIN`` of each query's k-th smallest ``a``, and the k
    nearest are picked among those by (distance, index). Any pair with
    ``sqrt(a) > 1`` raises the ``ValueError`` that ``math.asin`` raises on it;
    the callers check that every query lies on the globe, and no pair of
    points on it rounds there.
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
    query_lon = np.array(lons, dtype=float) * _RADIANS_PER_DEGREE
    query_lat = np.array(lats, dtype=float) * _RADIANS_PER_DEGREE
    sample_cos = elementwise(math.cos, sample_lat)
    query_cos = elementwise(math.cos, query_lat)

    values: list[float] = []
    step = max(1, BLOCK_PAIRS // n)
    for start, lat_terms, lon_terms in zip(range(0, len(query_lat), step),
                                           _sin_sq_half(sample_lat, query_lat, step),
                                           _sin_sq_half(sample_lon, query_lon, step)):
        a = lat_terms + query_cos[start:start + step, None] * sample_cos * lon_terms
        root = np.sqrt(a)
        if (root > 1.0).any():
            raise ValueError("math domain error")
        if k == n:
            order, nearest = nearest_first(2.0 * EARTH_RADIUS_M * elementwise(math.asin, root), n)
        else:
            kth = np.partition(a, k - 1, axis=1)[:, k - 1]
            r, c = np.nonzero(a <= kth[:, None] * CANDIDATE_MARGIN)
            dist = 2.0 * EARTH_RADIUS_M * elementwise(math.asin, root[r, c])
            order, nearest = first_k_of_candidates(r, c, dist, len(a), k)
        block_values = grads[order[:, 0]]
        far = nearest[:, 0] >= EXACT_HIT_DISTANCE_M
        if far.any():
            w = elementwise(pow, nearest[far], -power)
            # cumsum starts from the first term, not from 0.0: the two differ
            # only where the sum is -0.0, and + 0.0 turns that into 0.0.
            numerator = np.cumsum(w * grads[order[far]], axis=1)[:, -1] + 0.0
            denominator = np.cumsum(w, axis=1)[:, -1]
            if not denominator.all():
                raise ValueError(f"inverse-distance weights underflow to zero at power {power}")
            block_values[far] = numerator / denominator
        values.extend(block_values.tolist())
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
    exactly. Costs O(n log n) for n samples in NumPy, plus n ``asin`` calls,
    or, with ``max_neighbors`` k below n, O(n) in NumPy plus about k.
    The query must have longitude in [-180, 180] and latitude in [-90, 90].
    """
    if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
        raise ValueError(f"query point must have {_ON_GLOBE}, got ({lon!r}, {lat!r})")
    return _idw(samples, [lon], [lat], power, max_neighbors)[0]


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
) -> list[tuple[float, float, float]]:
    """Interpolated (lon, lat, gradient) rows on an inclusive regular grid.

    The bounds must have longitudes in [-180, 180] and latitudes in [-90, 90].
    Node counts may be whole floats, but not fractions or bools. Every node
    equals ``idw_interpolate`` at its (lon, lat). All nodes go through one
    blocked NumPy pass: O(q * n log n) for q nodes and n samples, with
    memory bounded per block, and q * n ``asin`` calls; with
    ``max_neighbors`` k below n, O(q * n) NumPy work and about q * k calls.
    """
    if not (all(-180.0 <= lon <= 180.0 for lon in (lon_min, lon_max))
            and all(-90.0 <= lat <= 90.0 for lat in (lat_min, lat_max))):
        raise ValueError(f"grid bounds must have {_ON_GLOBE}, got {(lon_min, lon_max, lat_min, lat_max)!r}")
    if any(isinstance(count, bool) or not float(count).is_integer() for count in (n_lon, n_lat)):
        raise ValueError(f"grid node counts must be whole numbers, got {n_lon!r} x {n_lat!r}")
    if n_lon < 1 or n_lat < 1:
        raise ValueError("grid needs at least one point per axis")
    n_lon, n_lat = int(n_lon), int(n_lat)
    lats = [float(lat_min) if n_lat == 1 else lat_min + (lat_max - lat_min) * i / (n_lat - 1) for i in range(n_lat)]
    lons = [float(lon_min) if n_lon == 1 else lon_min + (lon_max - lon_min) * j / (n_lon - 1) for j in range(n_lon)]
    node_lons = lons * n_lat
    node_lats = [lat for lat in lats for _ in lons]
    return list(zip(node_lons, node_lats, _idw(samples, node_lons, node_lats, power, max_neighbors)))


def _first_cell_error(rows: list[int], cells: list[str]) -> tuple[int, SampleParseError]:
    """Position of the first row holding a cell that is not a number, and the error naming that cell."""
    width = len(HEATFLOW_CSV_COLUMNS)
    for i, cell in enumerate(cells):
        try:
            _parse_float(cell, rows[i // width], HEATFLOW_CSV_COLUMNS[i % width], required=True)
        except SampleParseError as exc:
            return i // width, exc


def parse_heatflow(source: str | Iterable[str]) -> HeatFlowTable:
    """Parse heat-flow CSV (lon_deg, lat_deg, section_depth_m, gradt_c_per_km).

    Same dialect as the samples CSV; every cell is a required number, read
    with ``float`` as the samples parser reads one. Raises
    :class:`SampleParseError` for the first bad row, naming its column
    (``record`` for an invariant of :class:`HeatFlowTable`); a row's cells
    are checked before its invariants.
    """
    rows, cells = [], []
    for row, row_cells in read_csv_table(source, HEATFLOW_CSV_COLUMNS, "heat-flow"):
        rows.append(row)
        cells += row_cells
    width = len(HEATFLOW_CSV_COLUMNS)
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
        error = None
    except ValueError:
        # The rows before the first bad cell are checked first: an invariant
        # they break comes before that cell's error.
        n_good, error = _first_cell_error(rows, cells)
        values = np.fromiter(map(float, cells[:n_good * width]), float, n_good * width)
    try:
        table = HeatFlowTable(*values.reshape(-1, width).T)
    except InvalidHeatFlowPoint as exc:
        raise SampleParseError(rows[exc.index], "record", exc.reason) from exc
    if error is not None:
        raise error
    return table


def grid_to_csv(rows: Sequence[tuple[float, float, float]]) -> str:
    return write_csv(("lon_deg", "lat_deg", "gradt_c_per_km"),
                     ([repr(lon), repr(lat), repr(grad)] for lon, lat, grad in rows))
