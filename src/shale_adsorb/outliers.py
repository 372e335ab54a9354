"""K-nearest-neighbour outlier screening over cleaned adsorption datasets.

Records are compared by a weighted Euclidean distance over the dataset's
independent variables, with per-variable weights set from the interquartile
range so that the normalisation is robust to the very outliers being hunted.
A record is flagged when the distance-weighted relative difference between
its dependent value and its neighbours' exceeds a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import DatasetKind, SampleRecord, require_int, write_csv

DEFAULT_K = 5
DEFAULT_THRESHOLD = 0.85

#: Numerator of the IQR weight; any common positive factor cancels in the
#: neighbour weights, so this only fixes the scale of reported distances.
IQR_WEIGHT_SCALE = 10.0

#: Distances held by one block of the neighbour search: 2**17 float64, 1 MiB.
BLOCK_ELEMENTS = 2 ** 17


class ZeroIqrError(ValueError):
    """A distance variable has zero interquartile range, so no weight exists."""

    def __init__(self, variable: str):
        super().__init__(f"variable {variable} has zero interquartile range")
        self.variable = variable


@dataclass(frozen=True)
class DistanceWeights:
    """Per-variable weights for the statistical distance."""

    by_variable: dict[str, float]

    def __post_init__(self):
        for name, w in self.by_variable.items():
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"weight for {name} must be positive and finite, got {w!r}")


@dataclass
class OutlierReport:
    """Per-record weighted relative errors and the resulting outlier flags."""

    ids: list[str]
    r_values: list[float]
    flagged: list[bool]
    threshold: float
    k: int
    neighbor_indices: list[list[int]]
    neighbor_weights: list[list[float]]

    def flagged_ids(self) -> list[str]:
        return [i for i, f in zip(self.ids, self.flagged) if f]

    def inliers(self, records: Sequence[SampleRecord]) -> list[SampleRecord]:
        """The records that were not flagged, in input order."""
        if len(records) != len(self.flagged):
            raise ValueError("record list does not match this report")
        return [rec for rec, f in zip(records, self.flagged) if not f]

    def to_csv(self) -> str:
        """Serialise as ``id,R,flagged,neighbor_ids,neighbor_weights``.

        Neighbour lists are semicolon-joined within their cells.
        """
        ids = self.ids
        return write_csv(
            ("id", "R", "flagged", "neighbor_ids", "neighbor_weights"),
            ([
                rec_id,
                repr(r),
                "true" if flag else "false",
                ";".join(map(ids.__getitem__, neighbors)),
                ";".join(map(repr, weights)),
            ] for rec_id, r, flag, neighbors, weights in zip(
                ids, self.r_values, self.flagged, self.neighbor_indices, self.neighbor_weights)),
        )


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """Lower and upper quartile by linear interpolation at positions p*(n-1)."""
    if len(values) < 2:
        raise ValueError("need at least two values for quartiles")
    q1, q3 = np.percentile(np.asarray(values, dtype=float), [25.0, 75.0])
    return float(q1), float(q3)


def compute_weights(records: Sequence[SampleRecord], variables: Sequence[str]) -> DistanceWeights:
    """IQR-based distance weight for each active variable, over the full dataset."""
    weights: dict[str, float] = {}
    for var in variables:
        values = []
        for rec in records:
            value = getattr(rec, var)
            if value is None:
                raise ValueError(f"record {rec.id} is missing distance variable {var}")
            values.append(value)
        q1, q3 = quartiles(values)
        if q3 - q1 == 0.0:
            raise ZeroIqrError(var)
        weights[var] = IQR_WEIGHT_SCALE / (q3 - q1)
    return DistanceWeights(weights)


def _check_neighbour_count(k: int, n: int) -> int:
    """``k`` as an ``int``, checked to be a whole count from 1 to n - 1."""
    k = require_int("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} records for k={k}, got {n}")
    return k


def _distance_columns(records: Sequence[SampleRecord], weights: DistanceWeights) -> list[tuple[float, np.ndarray]]:
    """(weight, values) per distance variable, in ``weights.by_variable`` order."""
    columns = []
    for var, w in weights.by_variable.items():
        values = [getattr(rec, var) for rec in records]
        if None in values:
            raise ValueError(f"distance variable {var} missing from record {records[values.index(None)].id}")
        columns.append((w, np.array(values, dtype=float)))
    return columns


def _nearest(rows: np.ndarray, columns: list[tuple[float, np.ndarray]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the k nearest records to each record in ``rows``.

    Builds the (rows x n) distance block variable by variable, excludes each
    row's own record, and orders neighbours by (distance, index) with
    :func:`nearest_first`.
    """
    m = len(rows)
    acc = np.zeros((m, len(columns[0][1])))
    for w, col in columns:
        d = col[rows, None] - col
        d *= w
        d *= d
        acc += d
    dist = np.sqrt(acc, out=acc)
    dist[np.arange(m), rows] = np.inf
    return nearest_first(dist, k)


def nearest_first(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of the k smallest entries in each row of ``dist``, by (value, column).

    That is the first k of a stable ``argsort`` of each row. Below the
    full width, every column within the row's k-th smallest value is kept,
    so ties at that value are all candidates, and :func:`first_k_of_candidates`
    picks the first k. At the full width each row is sorted with the default
    (unstable, SIMD) ``argsort``, and only the rows whose sorted values are
    not strictly increasing (an equal pair, ``-0.0`` next to ``0.0``, or a
    NaN) are sorted again with ``kind="stable"``: a strictly increasing row
    has one sorting permutation, so every row gets the stable one.
    """
    m, n = dist.shape
    if k == n:
        order = np.argsort(dist, axis=1)
        values = np.take_along_axis(dist, order, axis=1)
        tied = np.flatnonzero(~(values[:, 1:] > values[:, :-1]).all(axis=1))
        if tied.size:
            rows = dist[tied]
            order[tied] = np.argsort(rows, axis=1, kind="stable")
            values[tied] = np.take_along_axis(rows, order[tied], axis=1)
        return order, values
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    r, c = np.nonzero(dist <= kth[:, None])
    return first_k_of_candidates(r, c, dist[r, c], m, k)


def first_k_of_candidates(
    r: np.ndarray, c: np.ndarray, values: np.ndarray, m: int, k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of the k smallest candidates in each of m rows, by (value, column).

    Candidate i is entry (``r[i]``, ``c[i]``) with value ``values[i]``, in
    row-major order, as ``np.nonzero`` gives them; every row holds at least k.
    """
    order = np.lexsort((c, values, r))
    take = order[np.searchsorted(r, np.arange(m))[:, None] + np.arange(k)]
    return c[take], values[take]


def _score(dist: np.ndarray, dep: np.ndarray, dep_neighbors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R values and neighbour weights of m records from their ordered neighbours.

    ``dist`` and ``dep_neighbors`` are (m, k): the distances and dependent
    values of each record's neighbours, nearest first; ``dep`` holds the
    records' own dependent values. Each step is one array operation, and
    each row rounds as the same steps on that row alone: a row's ``sum``,
    ``mean`` and ``vecdot`` are the 1-D ``sum``, ``mean`` and ``@``.
    """
    m, k = dist.shape
    total = dist.sum(axis=1, keepdims=True)
    # Rows left out keep the uniform weights: the only weight of a single
    # neighbour, and the limit of the formula as the distances coincide at 0.
    w = np.divide(total - dist, (k - 1) * total, out=np.full((m, k), 1.0 / k), where=(total != 0.0) & (k > 1))
    numerator = np.vecdot(w, np.abs(dep[:, None] - dep_neighbors))
    mean = dep_neighbors.mean(axis=1)
    # Python's min(mean, dep): the mean unless dep is strictly smaller.
    return numerator / np.where(dep < mean, dep, mean), w


def weighted_relative_error(
    index: int,
    records: Sequence[SampleRecord],
    weights: DistanceWeights,
    k: int,
    dependent: str,
) -> tuple[float, list[int], list[float]]:
    """Distance-weighted relative error of one record against its k neighbours.

    Neighbours are the k records (excluding ``index``) with the smallest
    statistical distance, ties broken by ascending record index. The weight
    of neighbour j is (S - D_j) / ((k-1) * S) with S the sum of the k
    neighbour distances; when S is zero (k exact duplicates) the weights are
    uniform. The relative error divides the weighted absolute difference of
    dependent values by the smaller of the test record's dependent value and
    the unweighted neighbour mean.

    This is a one-row call of the kernel ``detect_outliers`` runs over
    every record; its oracles are in ``tests/helpers.py``. Returns (R,
    neighbour indices, neighbour weights).
    """
    n = len(records)
    k = _check_neighbour_count(k, n)
    index = range(n)[index]
    idx, dist = _nearest(np.array([index]), _distance_columns(records, weights), k)
    neighbors = idx[0].tolist()
    deps = [getattr(records[j], dependent) for j in (index, *neighbors)]
    if None in deps:
        raise ValueError(f"dependent variable {dependent} missing from record or neighbours")
    r, w = _score(dist, np.array(deps[:1]), np.array([deps[1:]]))
    return r.item(), neighbors, w[0].tolist()


def detect_outliers(
    records: Sequence[SampleRecord],
    kind: DatasetKind,
    k: int = DEFAULT_K,
    threshold: float = DEFAULT_THRESHOLD,
) -> OutlierReport:
    """Flag outliers in a single simultaneous pass over the cleaned dataset.

    Distance weights are computed once from the full dataset (outliers
    included), every record's R value is computed against the full remaining
    dataset, and all records with R > threshold are flagged at once.

    The neighbour search is exact brute force: O(n^2 * d) arithmetic for d
    distance variables, done in NumPy over blocks of rows so that one block
    holds about ``BLOCK_ELEMENTS`` distances whatever n is. Distances use
    correctly rounded squares, so they agree bit for bit with the oracle
    ``statistical_distance`` in ``tests/helpers.py``. Scoring every record
    from its k neighbours is then O(n * k) NumPy work in a few whole-array
    operations, with no per-record Python; each R and weight equals the
    oracle ``naive_relative_error`` there bit for bit.
    """
    n = len(records)
    k = _check_neighbour_count(k, n)
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    weights = compute_weights(records, kind.independent_vars)
    columns = _distance_columns(records, weights)
    dependent = kind.dependent_var
    deps = [getattr(rec, dependent) for rec in records]
    if None in deps:
        raise ValueError(f"dependent variable {dependent} missing from record or neighbours")
    dep = np.array(deps, dtype=float)
    step = max(1, BLOCK_ELEMENTS // n)
    blocks = [_nearest(np.arange(start, min(start + step, n)), columns, k) for start in range(0, n, step)]
    idx = np.concatenate([block_idx for block_idx, _ in blocks])
    r, w = _score(np.concatenate([block_dist for _, block_dist in blocks]), dep, dep[idx])
    return OutlierReport(
        ids=[rec.id for rec in records],
        r_values=r.tolist(),
        flagged=(r > threshold).tolist(),
        threshold=threshold,
        k=k,
        neighbor_indices=idx.tolist(),
        neighbor_weights=w.tolist(),
    )
